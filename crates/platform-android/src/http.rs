//! Apache-HttpClient-flavoured HTTP access.
//!
//! The paper's Android HTTP proxy binds to `org.apache.http` (§4.1).
//! This module mirrors that API's shape — request objects executed by a
//! client — on top of the simulated network.

use std::fmt;

use mobivine_device::net::{HttpRequest, HttpResponse, Method, NetworkError};

use crate::context::Context;
use crate::error::AndroidException;
use crate::permissions::Permission;

/// An `org.apache.http`-style request wrapper.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HttpUriRequest {
    inner: HttpRequest,
}

impl HttpUriRequest {
    /// `new HttpGet(uri)`.
    ///
    /// # Errors
    ///
    /// Returns [`AndroidException::IllegalArgument`] for a malformed URI.
    pub fn get(uri: &str) -> Result<Self, AndroidException> {
        HttpRequest::get(uri)
            .map(|inner| Self { inner })
            .map_err(|e| AndroidException::IllegalArgument(e.to_string()))
    }

    /// `new HttpPost(uri)` with an entity body.
    ///
    /// # Errors
    ///
    /// Returns [`AndroidException::IllegalArgument`] for a malformed URI.
    pub fn post(uri: &str, body: impl Into<Vec<u8>>) -> Result<Self, AndroidException> {
        HttpRequest::post(uri, body)
            .map(|inner| Self { inner })
            .map_err(|e| AndroidException::IllegalArgument(e.to_string()))
    }

    /// `setHeader`.
    pub fn set_header(mut self, name: &str, value: &str) -> Self {
        self.inner = self.inner.header(name, value);
        self
    }

    /// The request method.
    pub fn method(&self) -> Method {
        self.inner.method
    }
}

/// `DefaultHttpClient`.
pub struct HttpClient {
    ctx: Context,
}

impl fmt::Debug for HttpClient {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("HttpClient").finish()
    }
}

impl HttpClient {
    pub(crate) fn new(ctx: Context) -> Self {
        Self { ctx }
    }

    /// `execute(request)` — synchronous round trip. Advances the virtual
    /// clock by the simulated network time.
    ///
    /// # Errors
    ///
    /// - [`AndroidException::Security`] without `INTERNET`.
    /// - [`AndroidException::Io`] for transport failures (unknown host,
    ///   bearer down). HTTP error statuses are returned as responses.
    pub fn execute(&self, request: &HttpUriRequest) -> Result<HttpResponse, AndroidException> {
        self.ctx.enforce_permission(Permission::Internet)?;
        let device = self.ctx.device();
        device.power().draw("radio", 1.5);
        match device.network().execute(&request.inner) {
            Ok((response, elapsed_ms)) => {
                device.advance_ms(elapsed_ms);
                Ok(response)
            }
            Err(
                err @ (NetworkError::UnknownHost
                | NetworkError::NetworkDown
                | NetworkError::TimedOut),
            ) => Err(AndroidException::Io(err.to_string())),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::context::AndroidPlatform;
    use crate::permissions::PermissionSet;
    use crate::version::SdkVersion;
    use mobivine_device::net::HttpResponse as SimResponse;
    use mobivine_device::Device;

    fn platform_with_server() -> AndroidPlatform {
        let device = Device::builder().build();
        device
            .network()
            .register_route("wfm.example", Method::Get, "/tasks", |_| {
                SimResponse::ok(r#"[{"task":"visit depot"}]"#)
            });
        device
            .network()
            .register_route("wfm.example", Method::Post, "/log", |req| {
                SimResponse::ok(format!("logged {} bytes", req.body.len()))
            });
        AndroidPlatform::new(device, SdkVersion::M5Rc15)
    }

    #[test]
    fn get_round_trip() {
        let platform = platform_with_server();
        let ctx = platform.new_context();
        let req = HttpUriRequest::get("http://wfm.example/tasks").unwrap();
        let resp = ctx.http_client().execute(&req).unwrap();
        assert_eq!(resp.status, 200);
        assert!(resp.body_text().contains("visit depot"));
    }

    #[test]
    fn post_carries_body_and_headers() {
        let platform = platform_with_server();
        let ctx = platform.new_context();
        let req = HttpUriRequest::post("http://wfm.example/log", "entry")
            .unwrap()
            .set_header("Content-Type", "text/plain");
        let resp = ctx.http_client().execute(&req).unwrap();
        assert_eq!(resp.body_text(), "logged 5 bytes");
    }

    #[test]
    fn execute_advances_virtual_clock() {
        let platform = platform_with_server();
        let device = platform.device().clone();
        let ctx = platform.new_context();
        let before = device.now_ms();
        let req = HttpUriRequest::get("http://wfm.example/tasks").unwrap();
        ctx.http_client().execute(&req).unwrap();
        assert!(device.now_ms() > before);
    }

    #[test]
    fn unknown_host_is_io_exception() {
        let ctx = platform_with_server().new_context();
        let req = HttpUriRequest::get("http://ghost.example/").unwrap();
        assert!(matches!(
            ctx.http_client().execute(&req),
            Err(AndroidException::Io(_))
        ));
    }

    #[test]
    fn http_404_is_a_response_not_an_exception() {
        let ctx = platform_with_server().new_context();
        let req = HttpUriRequest::get("http://wfm.example/missing").unwrap();
        let resp = ctx.http_client().execute(&req).unwrap();
        assert_eq!(resp.status, 404);
    }

    #[test]
    fn requires_internet_permission() {
        let platform = AndroidPlatform::with_permissions(
            Device::builder().build(),
            SdkVersion::M5Rc15,
            PermissionSet::new(),
        );
        let ctx = platform.new_context();
        let req = HttpUriRequest::get("http://wfm.example/tasks").unwrap();
        assert!(matches!(
            ctx.http_client().execute(&req),
            Err(AndroidException::Security(_))
        ));
    }

    #[test]
    fn malformed_uri_is_illegal_argument() {
        assert!(matches!(
            HttpUriRequest::get("not-a-url"),
            Err(AndroidException::IllegalArgument(_))
        ));
    }
}
