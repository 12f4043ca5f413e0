//! The uniform proxy error model.
//!
//! Each platform throws its own exception set (Android's
//! `SecurityException`/`RemoteException`/…, S60's `LocationException`/…).
//! The M-Proxy model maps them onto one platform-neutral error type while
//! preserving the underlying platform exception's class name for
//! debugging — "proxy bindings can be designed to efficiently handle
//! exceptions on different platforms" (paper §5, Complexity).

use std::fmt;

use mobivine_android::AndroidException;
use mobivine_s60::S60Exception;
use mobivine_webview::{BridgeError, ErrorCode};

/// Platform-neutral error categories.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ProxyErrorKind {
    /// Permission denied (any platform's security exception).
    Security,
    /// A malformed argument or property value.
    IllegalArgument,
    /// The capability is temporarily unavailable (no GPS fix, radio
    /// off).
    Unavailable,
    /// An I/O failure (network transport, messaging radio).
    Io,
    /// The interface has no binding on the running platform (e.g. Call
    /// on S60).
    UnsupportedOnPlatform,
    /// `setProperty` with a key the binding plane does not declare.
    UnknownProperty,
    /// `setProperty` with a value outside the property's allowed set,
    /// or of the wrong type.
    BadPropertyValue,
    /// A required property (e.g. Android's `context`) was never set.
    MissingProperty,
    /// Denied by an enrichment policy module (§3.3).
    PolicyDenied,
    /// Rejected fast by an open resilience circuit breaker without
    /// reaching the platform binding.
    CircuitOpen,
    /// The resilience retry budget was exhausted before the call
    /// succeeded.
    DeadlineExceeded,
    /// Shed by the overload-protection layer (admission controller or
    /// bulkhead) before reaching the platform binding. Carries a
    /// deterministic retry hint via [`ProxyError::retry_after_ms`].
    Overloaded,
}

impl ProxyErrorKind {
    /// Whether a retry of the same call can plausibly succeed — the
    /// transient classes of the paper's error model (`Unavailable`,
    /// `Io`). Permission, argument, and platform-support failures are
    /// permanent; resilience layers retry only when this returns true.
    pub fn is_retryable(self) -> bool {
        matches!(self, ProxyErrorKind::Unavailable | ProxyErrorKind::Io)
    }

    /// Whether this error was manufactured by the overload-protection
    /// layer shedding the call before it reached the platform binding.
    /// Shed calls carry a retry hint ([`ProxyError::retry_after`]) and
    /// must not spend resilience retry budget.
    pub fn is_load_shed(self) -> bool {
        matches!(self, ProxyErrorKind::Overloaded)
    }
}

/// The uniform error returned by every proxy API.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProxyError {
    kind: ProxyErrorKind,
    message: String,
    /// The originating platform exception class, when the error wraps
    /// one (`java.lang.SecurityException`, …).
    platform_exception: Option<&'static str>,
    /// For [`ProxyErrorKind::Overloaded`]: how long the shedding layer
    /// suggests the caller waits before trying again, virtual ms.
    retry_after_ms: Option<u64>,
}

impl ProxyError {
    /// Creates an error with no platform-exception provenance.
    pub fn new(kind: ProxyErrorKind, message: impl Into<String>) -> Self {
        Self {
            kind,
            message: message.into(),
            platform_exception: None,
            retry_after_ms: None,
        }
    }

    /// The error category.
    pub fn kind(&self) -> ProxyErrorKind {
        self.kind
    }

    /// The human-readable detail.
    pub fn message(&self) -> &str {
        &self.message
    }

    /// The platform exception class this error wraps, if any.
    pub fn platform_exception(&self) -> Option<&'static str> {
        self.platform_exception
    }

    /// The stable numeric error code used on the JavaScript bridge
    /// (paper §4.1: "an error code is defined for each possible
    /// exception").
    pub fn error_code(&self) -> i32 {
        match self.kind {
            ProxyErrorKind::Security => 1,
            ProxyErrorKind::IllegalArgument => 2,
            ProxyErrorKind::Unavailable => 3,
            ProxyErrorKind::Io => 4,
            ProxyErrorKind::UnsupportedOnPlatform => 5,
            ProxyErrorKind::UnknownProperty => 6,
            ProxyErrorKind::BadPropertyValue => 7,
            ProxyErrorKind::MissingProperty => 8,
            ProxyErrorKind::PolicyDenied => 9,
            ProxyErrorKind::CircuitOpen => 10,
            ProxyErrorKind::DeadlineExceeded => 11,
            ProxyErrorKind::Overloaded => 12,
        }
    }

    /// The shedding layer's retry hint, when this error carries one.
    pub fn retry_after_ms(&self) -> Option<u64> {
        self.retry_after_ms
    }

    /// The retry hint as a [`std::time::Duration`] — the typed twin of
    /// [`retry_after_ms`](Self::retry_after_ms) for callers that feed
    /// the hint into duration arithmetic.
    pub fn retry_after(&self) -> Option<std::time::Duration> {
        self.retry_after_ms.map(std::time::Duration::from_millis)
    }

    /// Attaches a retry hint (the `Retry-After` analogue of the typed
    /// error channel). Set by the overload layer on every shed.
    pub fn with_retry_after(mut self, ms: u64) -> Self {
        self.retry_after_ms = Some(ms);
        self
    }

    /// Attaches the originating platform exception class
    /// (`java.lang.SecurityException`, …). Decorators that re-wrap an
    /// error use this to keep provenance flowing through the chain.
    pub fn with_platform(mut self, class: &'static str) -> Self {
        self.platform_exception = Some(class);
        self
    }
}

impl fmt::Display for ProxyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:?}: {}", self.kind, self.message)?;
        if let Some(p) = &self.platform_exception {
            write!(f, " (platform exception {p})")?;
        }
        Ok(())
    }
}

impl std::error::Error for ProxyError {}

impl From<AndroidException> for ProxyError {
    fn from(e: AndroidException) -> Self {
        let kind = match &e {
            AndroidException::Security(_) => ProxyErrorKind::Security,
            AndroidException::IllegalArgument(_) => ProxyErrorKind::IllegalArgument,
            AndroidException::Remote(_) => ProxyErrorKind::Unavailable,
            AndroidException::Io(_) => ProxyErrorKind::Io,
            AndroidException::ApiRemoved { .. } => ProxyErrorKind::UnsupportedOnPlatform,
        };
        ProxyError::new(kind, e.to_string()).with_platform(e.java_class())
    }
}

impl From<S60Exception> for ProxyError {
    fn from(e: S60Exception) -> Self {
        let kind = match &e {
            S60Exception::Security(_) => ProxyErrorKind::Security,
            S60Exception::IllegalArgument(_) | S60Exception::NullPointer(_) => {
                ProxyErrorKind::IllegalArgument
            }
            S60Exception::Location(_) => ProxyErrorKind::Unavailable,
            S60Exception::Io(_) | S60Exception::Interrupted(_) => ProxyErrorKind::Io,
        };
        ProxyError::new(kind, e.to_string()).with_platform(e.java_class())
    }
}

impl From<BridgeError> for ProxyError {
    fn from(e: BridgeError) -> Self {
        let kind = match e.code {
            ErrorCode::Security => ProxyErrorKind::Security,
            ErrorCode::IllegalArgument => ProxyErrorKind::IllegalArgument,
            ErrorCode::Remote => ProxyErrorKind::Unavailable,
            ErrorCode::Io => ProxyErrorKind::Io,
            ErrorCode::ApiRemoved => ProxyErrorKind::UnsupportedOnPlatform,
            ErrorCode::Bridge => ProxyErrorKind::IllegalArgument,
            ErrorCode::Deadline => ProxyErrorKind::DeadlineExceeded,
            ErrorCode::Overloaded => ProxyErrorKind::Overloaded,
        };
        let class = e.code.canonical_java_class();
        let err = ProxyError::new(kind, e.message);
        match class {
            Some(class) => err.with_platform(class),
            None => err,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mobivine_android::SdkVersion;

    #[test]
    fn android_exceptions_map_with_provenance() {
        let err: ProxyError = AndroidException::Security("no SEND_SMS".into()).into();
        assert_eq!(err.kind(), ProxyErrorKind::Security);
        assert_eq!(
            err.platform_exception(),
            Some("java.lang.SecurityException")
        );
        assert!(err.message().contains("SEND_SMS"));
    }

    #[test]
    fn s60_location_exception_is_unavailable() {
        let err: ProxyError = S60Exception::Location("no fix".into()).into();
        assert_eq!(err.kind(), ProxyErrorKind::Unavailable);
        assert_eq!(
            err.platform_exception(),
            Some("javax.microedition.location.LocationException")
        );
    }

    #[test]
    fn api_removed_maps_to_unsupported() {
        let err: ProxyError = AndroidException::ApiRemoved {
            api: "x",
            version: SdkVersion::V1_0,
        }
        .into();
        assert_eq!(err.kind(), ProxyErrorKind::UnsupportedOnPlatform);
    }

    #[test]
    fn bridge_errors_map_by_code() {
        let err: ProxyError = BridgeError::bridge("bad arg").into();
        assert_eq!(err.kind(), ProxyErrorKind::IllegalArgument);
        assert_eq!(err.platform_exception(), None);
    }

    #[test]
    fn bridge_errors_preserve_platform_provenance() {
        let err: ProxyError = BridgeError {
            code: ErrorCode::Security,
            message: "denied at the bridge".into(),
        }
        .into();
        assert_eq!(err.kind(), ProxyErrorKind::Security);
        assert_eq!(
            err.platform_exception(),
            Some("java.lang.SecurityException")
        );

        let io: ProxyError = BridgeError {
            code: ErrorCode::Io,
            message: "socket reset".into(),
        }
        .into();
        assert_eq!(io.platform_exception(), Some("java.io.IOException"));
    }

    #[test]
    fn error_codes_are_stable_and_distinct() {
        let kinds = [
            ProxyErrorKind::Security,
            ProxyErrorKind::IllegalArgument,
            ProxyErrorKind::Unavailable,
            ProxyErrorKind::Io,
            ProxyErrorKind::UnsupportedOnPlatform,
            ProxyErrorKind::UnknownProperty,
            ProxyErrorKind::BadPropertyValue,
            ProxyErrorKind::MissingProperty,
            ProxyErrorKind::PolicyDenied,
            ProxyErrorKind::CircuitOpen,
            ProxyErrorKind::DeadlineExceeded,
            ProxyErrorKind::Overloaded,
        ];
        let mut codes: Vec<i32> = kinds
            .iter()
            .map(|k| ProxyError::new(*k, "x").error_code())
            .collect();
        codes.sort_unstable();
        codes.dedup();
        assert_eq!(codes.len(), kinds.len());
        assert_eq!(
            ProxyError::new(ProxyErrorKind::Security, "x").error_code(),
            1
        );
    }

    #[test]
    fn overloaded_carries_a_retry_hint() {
        let err = ProxyError::new(ProxyErrorKind::Overloaded, "shed").with_retry_after(250);
        assert_eq!(err.retry_after_ms(), Some(250));
        assert_eq!(
            err.retry_after(),
            Some(std::time::Duration::from_millis(250))
        );
        assert_eq!(err.error_code(), 12);
        let plain = ProxyError::new(ProxyErrorKind::Io, "transport");
        assert_eq!(plain.retry_after_ms(), None);
        assert_eq!(plain.retry_after(), None);
    }

    #[test]
    fn kind_accessors_partition_the_error_model() {
        let retryable = [ProxyErrorKind::Unavailable, ProxyErrorKind::Io];
        let permanent = [
            ProxyErrorKind::Security,
            ProxyErrorKind::IllegalArgument,
            ProxyErrorKind::UnsupportedOnPlatform,
            ProxyErrorKind::UnknownProperty,
            ProxyErrorKind::BadPropertyValue,
            ProxyErrorKind::MissingProperty,
            ProxyErrorKind::PolicyDenied,
            ProxyErrorKind::CircuitOpen,
            ProxyErrorKind::DeadlineExceeded,
            ProxyErrorKind::Overloaded,
        ];
        for kind in retryable {
            assert!(kind.is_retryable(), "{kind:?} retries");
            assert!(!kind.is_load_shed());
        }
        for kind in permanent {
            assert!(!kind.is_retryable(), "{kind:?} never retries");
        }
        assert!(ProxyErrorKind::Overloaded.is_load_shed());
        assert!(!ProxyErrorKind::DeadlineExceeded.is_load_shed());
    }

    #[test]
    fn bridge_deadline_and_overload_codes_map_back_to_their_kinds() {
        let deadline: ProxyError = BridgeError {
            code: ErrorCode::Deadline,
            message: "budget exhausted at the bridge".into(),
        }
        .into();
        assert_eq!(deadline.kind(), ProxyErrorKind::DeadlineExceeded);
        assert_eq!(
            deadline.platform_exception(),
            Some("java.util.concurrent.TimeoutException")
        );
        let shed: ProxyError = BridgeError {
            code: ErrorCode::Overloaded,
            message: "rejected".into(),
        }
        .into();
        assert_eq!(shed.kind(), ProxyErrorKind::Overloaded);
    }

    #[test]
    fn display_includes_provenance() {
        let err: ProxyError = S60Exception::Security("denied".into()).into();
        let s = err.to_string();
        assert!(s.contains("Security"));
        assert!(s.contains("java.lang.SecurityException"));
    }
}
