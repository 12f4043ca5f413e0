//! The S60 HTTP proxy binding.
//!
//! Absorbs the `javax.microedition.io` connection lifecycle (open,
//! configure, lazy transmit, stream reads) behind the uniform one-call
//! `request`.

use mobivine_proxydl::PlatformId;
use mobivine_s60::io::Connector;
use mobivine_s60::S60Platform;

use crate::api::{HttpProxy, ProxyBase};
use crate::error::ProxyError;
use crate::property::{PropertyBag, PropertyValue};
use crate::types::HttpResult;

/// The S60 binding of the uniform [`HttpProxy`]
/// (`com.ibm.S60.http.HttpProxy` in the descriptor).
pub struct S60HttpProxy {
    platform: S60Platform,
    properties: PropertyBag,
}

impl S60HttpProxy {
    /// Creates a proxy bound to `platform`.
    pub fn new(platform: S60Platform) -> Self {
        Self {
            platform,
            properties: PropertyBag::standard("Http", &PlatformId::NokiaS60),
        }
    }
}

impl ProxyBase for S60HttpProxy {
    fn set_property(&self, key: &str, value: PropertyValue) -> Result<(), ProxyError> {
        self.properties.set(key, value)
    }
}

impl HttpProxy for S60HttpProxy {
    fn request(&self, method: &str, url: &str, body: &[u8]) -> Result<HttpResult, ProxyError> {
        let mut connection = Connector::open_http(&self.platform, url)?;
        connection.set_request_method(method)?;
        if !body.is_empty() {
            connection.write_body(body)?;
        }
        let status = connection.response_code()?;
        let body_text = connection.read_fully()?;
        Ok(HttpResult {
            status,
            headers: Vec::new(),
            body: body_text.into_bytes(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mobivine_device::net::{HttpResponse, Method};
    use mobivine_device::Device;
    use mobivine_s60::permissions::{ApiPermission, Disposition, PermissionPolicy};

    fn platform() -> S60Platform {
        let device = Device::builder().build();
        device
            .network()
            .register_route("wfm.example", Method::Get, "/tasks", |_| {
                HttpResponse::ok("task list")
            });
        device
            .network()
            .register_route("wfm.example", Method::Post, "/log", |req| {
                HttpResponse::ok(format!("{}", req.body.len()))
            });
        S60Platform::new(device)
    }

    #[test]
    fn get_and_post_uniform_results() {
        let proxy = S60HttpProxy::new(platform());
        let get = proxy
            .request("GET", "http://wfm.example/tasks", &[])
            .unwrap();
        assert!(get.is_success());
        assert_eq!(get.body_text(), "task list");
        let post = proxy
            .request("POST", "http://wfm.example/log", b"abcd")
            .unwrap();
        assert_eq!(post.body_text(), "4");
    }

    #[test]
    fn transport_failure_is_io() {
        let proxy = S60HttpProxy::new(platform());
        assert_eq!(
            proxy
                .request("GET", "http://ghost/", &[])
                .unwrap_err()
                .kind(),
            crate::error::ProxyErrorKind::Io
        );
    }

    #[test]
    fn status_errors_are_results() {
        let proxy = S60HttpProxy::new(platform());
        let resp = proxy
            .request("GET", "http://wfm.example/none", &[])
            .unwrap();
        assert_eq!(resp.status, 404);
    }

    #[test]
    fn denied_policy_is_uniform_security_error() {
        let policy = PermissionPolicy::new();
        policy.set(ApiPermission::HttpConnect, Disposition::Denied);
        let platform = S60Platform::with_policy(Device::builder().build(), policy);
        let proxy = S60HttpProxy::new(platform);
        assert_eq!(
            proxy
                .request("GET", "http://wfm.example/", &[])
                .unwrap_err()
                .kind(),
            crate::error::ProxyErrorKind::Security
        );
    }

    #[test]
    fn bad_inputs_are_illegal_arguments() {
        let proxy = S60HttpProxy::new(platform());
        assert_eq!(
            proxy.request("GET", "ftp://x/", &[]).unwrap_err().kind(),
            crate::error::ProxyErrorKind::IllegalArgument
        );
        assert_eq!(
            proxy
                .request("BREW", "http://wfm.example/", &[])
                .unwrap_err()
                .kind(),
            crate::error::ProxyErrorKind::IllegalArgument
        );
    }
}
