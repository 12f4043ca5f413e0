//! `javax.microedition.io`-style connections.
//!
//! The paper's S60 HTTP proxy binds to
//! `javax.microedition.io.Connector` (§4.1). The J2ME flavour differs
//! from Android's Apache client: a connection is opened from a URL
//! string, configured with request method/properties, and the response
//! is pulled through stream-like reads.

use std::fmt;

use parking_lot::Mutex;

use mobivine_device::net::{HttpRequest, Method, NetworkError, Url, UrlError};

use crate::error::S60Exception;
use crate::permissions::ApiPermission;
use crate::platform::S60Platform;

/// `Connector` — the static factory for J2ME connections.
#[derive(Debug)]
pub struct Connector;

impl Connector {
    /// `Connector.open("http://…")` — opens an HTTP connection in the
    /// *setup* state; nothing is transmitted until a response accessor
    /// is called.
    ///
    /// # Errors
    ///
    /// - [`S60Exception::Security`] if HTTP access is denied.
    /// - [`S60Exception::IllegalArgument`] for non-HTTP URLs.
    pub fn open_http(platform: &S60Platform, url: &str) -> Result<HttpConnection, S60Exception> {
        platform.enforce(ApiPermission::HttpConnect)?;
        if !url.starts_with("http://") {
            return Err(S60Exception::IllegalArgument(format!(
                "connector scheme not supported: {url}"
            )));
        }
        // Parse eagerly so setup errors surface at open() like on the
        // real platform; the connection keeps the parsed form.
        let url = url
            .parse()
            .map_err(|e: UrlError| S60Exception::IllegalArgument(e.to_string()))?;
        Ok(HttpConnection {
            platform: platform.clone(),
            url,
            method: Method::Get,
            request_properties: Vec::new(),
            request_body: Vec::new(),
            state: Mutex::new(ConnState::Setup),
        })
    }
}

#[derive(Debug)]
enum ConnState {
    Setup,
    Connected {
        status: u16,
        headers: Vec<(String, String)>,
        body: Vec<u8>,
        read_offset: usize,
    },
    Closed,
}

/// `javax.microedition.io.HttpConnection`.
pub struct HttpConnection {
    platform: S60Platform,
    url: Url,
    method: Method,
    request_properties: Vec<(String, String)>,
    request_body: Vec<u8>,
    state: Mutex<ConnState>,
}

impl fmt::Debug for HttpConnection {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("HttpConnection")
            .field("url", &self.url)
            .field("method", &self.method)
            .finish()
    }
}

impl HttpConnection {
    /// `setRequestMethod("GET" | "POST" | …)`.
    ///
    /// # Errors
    ///
    /// - [`S60Exception::IllegalArgument`] for unknown methods.
    /// - [`S60Exception::Io`] if the connection already transmitted.
    pub fn set_request_method(&mut self, method: &str) -> Result<(), S60Exception> {
        self.ensure_setup()?;
        self.method = method
            .parse()
            .map_err(|_| S60Exception::IllegalArgument(format!("bad method {method}")))?;
        Ok(())
    }

    /// `setRequestProperty(key, value)` — a request header.
    ///
    /// # Errors
    ///
    /// Returns [`S60Exception::Io`] if the connection already
    /// transmitted.
    pub fn set_request_property(&mut self, key: &str, value: &str) -> Result<(), S60Exception> {
        self.ensure_setup()?;
        self.request_properties
            .push((key.to_owned(), value.to_owned()));
        Ok(())
    }

    /// Writes the request entity (the `openOutputStream().write(...)`
    /// path).
    ///
    /// # Errors
    ///
    /// Returns [`S60Exception::Io`] if the connection already
    /// transmitted.
    pub fn write_body(&mut self, body: &[u8]) -> Result<(), S60Exception> {
        self.ensure_setup()?;
        self.request_body.extend_from_slice(body);
        Ok(())
    }

    /// `getResponseCode()` — transmits the request on first call (J2ME's
    /// lazy transition from Setup to Connected) and returns the status.
    ///
    /// # Errors
    ///
    /// Returns [`S60Exception::Io`] for transport failures or a closed
    /// connection.
    pub fn response_code(&self) -> Result<u16, S60Exception> {
        self.connect()?;
        match &*self.state.lock() {
            ConnState::Connected { status, .. } => Ok(*status),
            _ => Err(S60Exception::Io("connection closed".to_owned())),
        }
    }

    /// `getHeaderField(name)` — response header lookup,
    /// case-insensitive. Transmits on first call if needed.
    ///
    /// # Errors
    ///
    /// Returns [`S60Exception::Io`] for transport failures.
    pub fn header_field(&self, name: &str) -> Result<Option<String>, S60Exception> {
        self.connect()?;
        match &*self.state.lock() {
            ConnState::Connected { headers, .. } => Ok(headers
                .iter()
                .find(|(n, _)| n.eq_ignore_ascii_case(name))
                .map(|(_, v)| v.clone())),
            _ => Err(S60Exception::Io("connection closed".to_owned())),
        }
    }

    /// Reads up to `buf.len()` bytes of the response entity, returning
    /// the count (0 at end of stream) — the `openInputStream().read()`
    /// path.
    ///
    /// # Errors
    ///
    /// Returns [`S60Exception::Io`] for transport failures.
    pub fn read(&self, buf: &mut [u8]) -> Result<usize, S60Exception> {
        self.connect()?;
        match &mut *self.state.lock() {
            ConnState::Connected {
                body, read_offset, ..
            } => {
                let available = body.len().saturating_sub(*read_offset);
                let n = available.min(buf.len());
                buf[..n].copy_from_slice(&body[*read_offset..*read_offset + n]);
                *read_offset += n;
                Ok(n)
            }
            _ => Err(S60Exception::Io("connection closed".to_owned())),
        }
    }

    /// Reads the entire remaining response entity as a string.
    ///
    /// # Errors
    ///
    /// Returns [`S60Exception::Io`] for transport failures.
    pub fn read_fully(&self) -> Result<String, S60Exception> {
        let mut out = Vec::new();
        let mut chunk = [0u8; 256];
        loop {
            let n = self.read(&mut chunk)?;
            if n == 0 {
                break;
            }
            out.extend_from_slice(&chunk[..n]);
        }
        Ok(String::from_utf8_lossy(&out).into_owned())
    }

    /// `close()`.
    pub fn close(&self) {
        *self.state.lock() = ConnState::Closed;
    }

    fn ensure_setup(&self) -> Result<(), S60Exception> {
        match &*self.state.lock() {
            ConnState::Setup => Ok(()),
            _ => Err(S60Exception::Io(
                "connection already in connected state".to_owned(),
            )),
        }
    }

    fn connect(&self) -> Result<(), S60Exception> {
        let mut state = self.state.lock();
        match &*state {
            ConnState::Connected { .. } => return Ok(()),
            ConnState::Closed => return Err(S60Exception::Io("connection closed".to_owned())),
            ConnState::Setup => {}
        }
        let device = self.platform.device();
        device.power().draw("radio", 1.5);
        let mut request = HttpRequest {
            method: self.method,
            url: self.url.clone(),
            headers: self.request_properties.clone(),
            body: self.request_body.clone(),
        };
        if request.body.is_empty() && self.method == Method::Post {
            request.body = Vec::new();
        }
        match device.network().execute(&request) {
            Ok((response, elapsed_ms)) => {
                device.advance_ms(elapsed_ms);
                *state = ConnState::Connected {
                    status: response.status,
                    headers: response.headers,
                    body: response.body,
                    read_offset: 0,
                };
                Ok(())
            }
            Err(
                err @ (NetworkError::UnknownHost
                | NetworkError::NetworkDown
                | NetworkError::TimedOut),
            ) => Err(S60Exception::Io(err.to_string())),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::permissions::{Disposition, PermissionPolicy};
    use mobivine_device::net::HttpResponse;
    use mobivine_device::Device;

    fn platform_with_server() -> S60Platform {
        let device = Device::builder().build();
        device
            .network()
            .register_route("wfm.example", Method::Get, "/tasks", |_| {
                let mut r = HttpResponse::ok("task list");
                r.headers.push(("Content-Type".into(), "text/plain".into()));
                r
            });
        device
            .network()
            .register_route("wfm.example", Method::Post, "/log", |req| {
                HttpResponse::ok(format!("{} bytes", req.body.len()))
            });
        S60Platform::new(device)
    }

    #[test]
    fn get_flow_reads_status_headers_body() {
        let platform = platform_with_server();
        let conn = Connector::open_http(&platform, "http://wfm.example/tasks").unwrap();
        assert_eq!(conn.response_code().unwrap(), 200);
        assert_eq!(
            conn.header_field("content-type").unwrap().as_deref(),
            Some("text/plain")
        );
        assert_eq!(conn.read_fully().unwrap(), "task list");
    }

    #[test]
    fn post_flow_with_body() {
        let platform = platform_with_server();
        let mut conn = Connector::open_http(&platform, "http://wfm.example/log").unwrap();
        conn.set_request_method("POST").unwrap();
        conn.set_request_property("Content-Type", "text/plain")
            .unwrap();
        conn.write_body(b"activity entry").unwrap();
        assert_eq!(conn.response_code().unwrap(), 200);
        assert_eq!(conn.read_fully().unwrap(), "14 bytes");
    }

    #[test]
    fn setup_mutations_after_connect_are_io_errors() {
        let platform = platform_with_server();
        let mut conn = Connector::open_http(&platform, "http://wfm.example/tasks").unwrap();
        conn.response_code().unwrap();
        assert!(matches!(
            conn.set_request_method("POST"),
            Err(S60Exception::Io(_))
        ));
        assert!(matches!(
            conn.set_request_property("a", "b"),
            Err(S60Exception::Io(_))
        ));
        assert!(matches!(conn.write_body(b"x"), Err(S60Exception::Io(_))));
    }

    #[test]
    fn read_is_incremental() {
        let platform = platform_with_server();
        let conn = Connector::open_http(&platform, "http://wfm.example/tasks").unwrap();
        let mut buf = [0u8; 4];
        assert_eq!(conn.read(&mut buf).unwrap(), 4);
        assert_eq!(&buf, b"task");
        assert_eq!(conn.read_fully().unwrap(), " list");
        assert_eq!(conn.read(&mut buf).unwrap(), 0);
    }

    #[test]
    fn unknown_host_is_io_exception() {
        let platform = platform_with_server();
        let conn = Connector::open_http(&platform, "http://ghost.example/").unwrap();
        assert!(matches!(conn.response_code(), Err(S60Exception::Io(_))));
    }

    #[test]
    fn closed_connection_rejects_reads() {
        let platform = platform_with_server();
        let conn = Connector::open_http(&platform, "http://wfm.example/tasks").unwrap();
        conn.close();
        assert!(matches!(conn.response_code(), Err(S60Exception::Io(_))));
    }

    #[test]
    fn non_http_scheme_rejected_at_open() {
        let platform = platform_with_server();
        assert!(matches!(
            Connector::open_http(&platform, "socket://x:80"),
            Err(S60Exception::IllegalArgument(_))
        ));
    }

    #[test]
    fn malformed_http_url_rejected_at_open() {
        let platform = platform_with_server();
        for url in [
            "http://",
            "http://wfm.example:port/tasks",
            "http://:80/tasks",
        ] {
            assert!(
                matches!(
                    Connector::open_http(&platform, url),
                    Err(S60Exception::IllegalArgument(_))
                ),
                "{url}"
            );
        }
    }

    #[test]
    fn denied_policy_blocks_open() {
        let policy = PermissionPolicy::new();
        policy.set(ApiPermission::HttpConnect, Disposition::Denied);
        let platform = S60Platform::with_policy(Device::builder().build(), policy);
        assert!(matches!(
            Connector::open_http(&platform, "http://x/"),
            Err(S60Exception::Security(_))
        ));
    }

    #[test]
    fn bad_method_is_illegal_argument() {
        let platform = platform_with_server();
        let mut conn = Connector::open_http(&platform, "http://wfm.example/tasks").unwrap();
        assert!(matches!(
            conn.set_request_method("BREW"),
            Err(S60Exception::IllegalArgument(_))
        ));
    }
}
