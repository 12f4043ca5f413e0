//! Java ↔ JavaScript bridge rules.
//!
//! Two constraints from the paper's WebView proxy design (§4.1):
//!
//! 1. "exceptions thrown by the native interface invocation are
//!    propagated to the corresponding proxy with the help of **error
//!    codes**, wherein an error code is defined for each possible
//!    exception" — [`ErrorCode`] is that enumeration;
//! 2. callbacks cannot cross from Java into JavaScript — the bridge
//!    rejects function-valued arguments; asynchronous results go through
//!    the [`crate::notification`] table instead.

use std::fmt;

use mobivine_android::AndroidException;

use crate::value::JsValue;
use crate::wire::{NodeId, WireBuf, WireValue};

/// Stable numeric error codes for every Android exception the bridge
/// can see. (The JavaScript proxy maps these back to thrown errors.)
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ErrorCode {
    /// `SecurityException`.
    Security = 1,
    /// `IllegalArgumentException`.
    IllegalArgument = 2,
    /// `RemoteException` (e.g. no GPS fix).
    Remote = 3,
    /// `IOException` (transport failures).
    Io = 4,
    /// The invoked API does not exist in the platform version.
    ApiRemoved = 5,
    /// The bridge itself rejected the call (bad interface name, bad
    /// method, type mismatch).
    Bridge = 6,
    /// The caller's deadline budget was exhausted before (or while)
    /// crossing the bridge (`TimeoutException` on the Java side).
    Deadline = 7,
    /// The native side shed the call under overload
    /// (`RejectedExecutionException` on the Java side).
    Overloaded = 8,
}

impl ErrorCode {
    /// The numeric code marshalled over the bridge.
    pub fn code(&self) -> i32 {
        *self as i32
    }

    /// Parses a numeric code back into the enumeration.
    pub fn from_code(code: i32) -> Option<Self> {
        match code {
            1 => Some(ErrorCode::Security),
            2 => Some(ErrorCode::IllegalArgument),
            3 => Some(ErrorCode::Remote),
            4 => Some(ErrorCode::Io),
            5 => Some(ErrorCode::ApiRemoved),
            6 => Some(ErrorCode::Bridge),
            7 => Some(ErrorCode::Deadline),
            8 => Some(ErrorCode::Overloaded),
            _ => None,
        }
    }

    /// The canonical Java exception class a code stands for, when the
    /// code wraps a platform exception. Bridge-layer rejections
    /// ([`ErrorCode::Bridge`]) carry no platform class. This lets the
    /// uniform error model restore provenance that the numeric channel
    /// would otherwise flatten away.
    pub fn canonical_java_class(&self) -> Option<&'static str> {
        match self {
            ErrorCode::Security => Some("java.lang.SecurityException"),
            ErrorCode::IllegalArgument => Some("java.lang.IllegalArgumentException"),
            ErrorCode::Remote => Some("android.os.RemoteException"),
            ErrorCode::Io => Some("java.io.IOException"),
            ErrorCode::ApiRemoved => Some("java.lang.NoSuchMethodError"),
            ErrorCode::Bridge => None,
            ErrorCode::Deadline => Some("java.util.concurrent.TimeoutException"),
            ErrorCode::Overloaded => Some("java.util.concurrent.RejectedExecutionException"),
        }
    }

    /// Maps an Android exception to its code — the "error code is
    /// defined for each possible exception" table.
    pub fn from_android(e: &AndroidException) -> Self {
        match e {
            AndroidException::Security(_) => ErrorCode::Security,
            AndroidException::IllegalArgument(_) => ErrorCode::IllegalArgument,
            AndroidException::Remote(_) => ErrorCode::Remote,
            AndroidException::Io(_) => ErrorCode::Io,
            AndroidException::ApiRemoved { .. } => ErrorCode::ApiRemoved,
        }
    }
}

impl fmt::Display for ErrorCode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{self:?}")
    }
}

/// An error crossing the bridge into JavaScript: a code plus a message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BridgeError {
    /// The error-code channel value.
    pub code: ErrorCode,
    /// Human-readable detail.
    pub message: String,
}

impl BridgeError {
    /// Builds a bridge-layer error.
    pub fn bridge(message: impl Into<String>) -> Self {
        Self {
            code: ErrorCode::Bridge,
            message: message.into(),
        }
    }

    /// Wraps an Android exception.
    pub fn from_android(e: AndroidException) -> Self {
        Self {
            code: ErrorCode::from_android(&e),
            message: e.to_string(),
        }
    }

    /// The JavaScript-visible error object
    /// (`{ errorCode: n, message: s }`).
    pub fn to_js(&self) -> JsValue {
        JsValue::object([
            ("errorCode", JsValue::Number(self.code.code() as f64)),
            ("message", JsValue::str(&self.message)),
        ])
    }
}

impl fmt::Display for BridgeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "bridge error {}: {}", self.code.code(), self.message)
    }
}

impl std::error::Error for BridgeError {}

/// A Java object injected into the JavaScript world via
/// `addJavaScriptInterface`. The paper's `SmsWrapper`,
/// `LocationWrapper` etc. implement this.
pub trait JavaScriptInterface: Send + Sync {
    /// Invokes `method` with JavaScript arguments, returning a
    /// JavaScript value.
    ///
    /// # Errors
    ///
    /// Returns [`BridgeError`] with the appropriate [`ErrorCode`] when
    /// the underlying platform call throws, or a
    /// [`ErrorCode::Bridge`]-coded error for unknown methods or type
    /// mismatches.
    fn call(&self, method: &str, args: &[JsValue]) -> Result<JsValue, BridgeError>;

    /// Invokes `method` carrying the two pieces of call context the page
    /// side marshals over the bridge: an optional W3C `traceparent`
    /// string, so middleware above the page can stitch the JavaScript
    /// side and the native side into one trace, and the caller's
    /// remaining deadline budget in virtual milliseconds. A budget of
    /// `Some(0)` means the caller entered the bridge with nothing left;
    /// deadline-aware wrappers fail fast with [`ErrorCode::Deadline`]
    /// instead of invoking the platform.
    ///
    /// The default implementation ignores both and delegates to
    /// [`JavaScriptInterface::call`]; trace- and deadline-aware wrappers
    /// override it to parent their native-side spans on the caller's
    /// context and to honour the budget.
    ///
    /// # Errors
    ///
    /// Same as [`JavaScriptInterface::call`].
    fn call_with_context(
        &self,
        method: &str,
        args: &[JsValue],
        traceparent: Option<&str>,
        deadline_budget_ms: Option<u64>,
    ) -> Result<JsValue, BridgeError> {
        let _ = (traceparent, deadline_budget_ms);
        self.call(method, args)
    }

    /// Invokes `method` with arena-encoded arguments, writing the result
    /// into the caller-owned `reply` buffer. This is the zero-copy entry
    /// point: the arguments are borrowed views into the call arena and
    /// the result is encoded in place, so a wire-aware wrapper crosses
    /// the bridge without owned [`JsValue`] trees on either side.
    ///
    /// The default implementation decodes the arguments into owned
    /// values and delegates to
    /// [`call_with_context`](JavaScriptInterface::call_with_context), so
    /// an interface that only implements [`call`](JavaScriptInterface::call)
    /// still services wire invocations (paying the marshalling cost the
    /// override avoids).
    ///
    /// # Errors
    ///
    /// Same as [`JavaScriptInterface::call`].
    fn call_wire(
        &self,
        method: &str,
        args: WireValue<'_>,
        reply: &mut WireBuf,
        traceparent: Option<&str>,
        deadline_budget_ms: Option<u64>,
    ) -> Result<NodeId, BridgeError> {
        call_wire_via_values(self, method, args, reply, traceparent, deadline_budget_ms)
    }

    /// Services a batched crossing: every queued frame in `calls` is
    /// invoked in order and exactly one reply frame — result node or
    /// per-entry error code — is appended to `reply`. One entry failing
    /// does not abort the rest of the batch.
    ///
    /// The default implementation loops over
    /// [`call_wire`](JavaScriptInterface::call_wire), so batching
    /// composes with the default-delegation chain down to plain
    /// [`call`](JavaScriptInterface::call).
    fn call_batch(
        &self,
        calls: &WireBuf,
        reply: &mut WireBuf,
        traceparent: Option<&str>,
        deadline_budget_ms: Option<u64>,
    ) {
        for i in 0..calls.frame_count() {
            let (method, args) = calls.frame(i);
            match self.call_wire(method, args, reply, traceparent, deadline_budget_ms) {
                Ok(node) => reply.push_ok_frame(node),
                Err(e) => reply.push_err_frame(e.code, &e.message),
            }
        }
    }
}

/// The compatibility path behind the default
/// [`JavaScriptInterface::call_wire`]: decode the argument views into
/// owned values, delegate to `call_with_context`, and re-encode the
/// owned result into the reply arena.
///
/// Wire-aware wrappers that override `call_wire` for their hot methods
/// call this from their fallback arm so cold methods keep working.
///
/// # Errors
///
/// Same as [`JavaScriptInterface::call`].
pub fn call_wire_via_values(
    iface: &(impl JavaScriptInterface + ?Sized),
    method: &str,
    args: WireValue<'_>,
    reply: &mut WireBuf,
    traceparent: Option<&str>,
    deadline_budget_ms: Option<u64>,
) -> Result<NodeId, BridgeError> {
    let owned = args.to_js_args()?;
    let out = iface.call_with_context(method, &owned, traceparent, deadline_budget_ms)?;
    Ok(reply.push_js(&out))
}

/// Argument-extraction helpers shared by wrapper implementations.
pub mod args {
    use super::{BridgeError, JsValue};

    /// Extracts a required numeric argument.
    ///
    /// # Errors
    ///
    /// Returns a bridge-coded error naming the position on a missing or
    /// non-numeric argument.
    pub fn number(call_args: &[JsValue], index: usize) -> Result<f64, BridgeError> {
        call_args
            .get(index)
            .and_then(JsValue::as_number)
            .ok_or_else(|| BridgeError::bridge(format!("argument {index} must be a number")))
    }

    /// Extracts a required string argument, borrowed from the call
    /// arguments — no allocation on the success path.
    ///
    /// # Errors
    ///
    /// Returns a bridge-coded error naming the position on a missing or
    /// non-string argument.
    pub fn string(call_args: &[JsValue], index: usize) -> Result<&str, BridgeError> {
        call_args
            .get(index)
            .and_then(JsValue::as_str)
            .ok_or_else(|| BridgeError::bridge(format!("argument {index} must be a string")))
    }

    /// Extracts an optional boolean argument (defaults when absent).
    pub fn bool_or(call_args: &[JsValue], index: usize, default: bool) -> bool {
        call_args
            .get(index)
            .and_then(JsValue::as_bool)
            .unwrap_or(default)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_android_exception_has_a_distinct_code() {
        use mobivine_android::SdkVersion;
        let samples = [
            AndroidException::Security("s".into()),
            AndroidException::IllegalArgument("i".into()),
            AndroidException::Remote("r".into()),
            AndroidException::Io("o".into()),
            AndroidException::ApiRemoved {
                api: "x",
                version: SdkVersion::V1_0,
            },
        ];
        let mut codes: Vec<i32> = samples
            .iter()
            .map(|e| ErrorCode::from_android(e).code())
            .collect();
        codes.sort_unstable();
        codes.dedup();
        assert_eq!(codes.len(), samples.len());
    }

    #[test]
    fn codes_round_trip() {
        for code in [
            ErrorCode::Security,
            ErrorCode::IllegalArgument,
            ErrorCode::Remote,
            ErrorCode::Io,
            ErrorCode::ApiRemoved,
            ErrorCode::Bridge,
            ErrorCode::Deadline,
            ErrorCode::Overloaded,
        ] {
            assert_eq!(ErrorCode::from_code(code.code()), Some(code));
        }
        assert_eq!(ErrorCode::from_code(0), None);
        assert_eq!(ErrorCode::from_code(99), None);
    }

    #[test]
    fn bridge_error_to_js_shape() {
        let err = BridgeError::from_android(AndroidException::Security("denied".into()));
        let js = err.to_js();
        assert_eq!(js.get("errorCode"), JsValue::Number(1.0));
        assert!(js.get("message").as_str().unwrap().contains("denied"));
    }

    #[test]
    fn arg_helpers_validate() {
        let call_args = [JsValue::Number(2.0), JsValue::str("hi")];
        assert_eq!(args::number(&call_args, 0).unwrap(), 2.0);
        assert_eq!(args::string(&call_args, 1).unwrap(), "hi");
        assert!(args::number(&call_args, 1).is_err());
        assert!(args::string(&call_args, 5).is_err());
        assert!(args::bool_or(&call_args, 5, true));
    }
}
