//! Simulated HTTP network with in-process servers.
//!
//! The workforce-management application of the paper communicates with a
//! server-side component over HTTP. This module provides the transport:
//! a [`SimNetwork`] hosting named servers with routed handlers, a latency
//! model (round-trip base cost plus bandwidth-proportional transfer time),
//! and failure injection (network down, unknown hosts).

use std::collections::HashMap;
use std::fmt;
use std::str::FromStr;
use std::sync::{Arc, OnceLock};

use mobivine_telemetry::span::{ambient, Plane};
use mobivine_telemetry::{Counter, Histogram, Labels, MetricsRegistry};
use parking_lot::Mutex;

use crate::clock::SimClock;
use crate::event::EventQueue;

/// HTTP request method (the subset the 2009-era mobile stacks exposed).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Method {
    /// Retrieve a resource.
    Get,
    /// Submit an entity.
    Post,
    /// Replace an entity.
    Put,
    /// Delete a resource.
    Delete,
    /// Headers only.
    Head,
}

impl Method {
    /// The method's wire name, e.g. `GET`.
    pub fn as_str(self) -> &'static str {
        match self {
            Method::Get => "GET",
            Method::Post => "POST",
            Method::Put => "PUT",
            Method::Delete => "DELETE",
            Method::Head => "HEAD",
        }
    }
}

impl fmt::Display for Method {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

impl FromStr for Method {
    type Err = UrlError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s.to_ascii_uppercase().as_str() {
            "GET" => Ok(Method::Get),
            "POST" => Ok(Method::Post),
            "PUT" => Ok(Method::Put),
            "DELETE" => Ok(Method::Delete),
            "HEAD" => Ok(Method::Head),
            _ => Err(UrlError::UnsupportedMethod),
        }
    }
}

/// A parsed `http://host[:port]/path[?query]` URL.
///
/// # Example
///
/// ```
/// use mobivine_device::net::Url;
///
/// let url: Url = "http://wfm.example:8080/tasks?agent=7".parse().unwrap();
/// assert_eq!(url.host, "wfm.example");
/// assert_eq!(url.port, 8080);
/// assert_eq!(url.path, "/tasks");
/// assert_eq!(url.query.as_deref(), Some("agent=7"));
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Url {
    /// Host name.
    pub host: String,
    /// TCP port (default 80).
    pub port: u16,
    /// Absolute path, always starting with `/`.
    pub path: String,
    /// Raw query string without the leading `?`.
    pub query: Option<String>,
}

impl fmt::Display for Url {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "http://{}:{}{}", self.host, self.port, self.path)?;
        if let Some(q) = &self.query {
            write!(f, "?{q}")?;
        }
        Ok(())
    }
}

/// Error parsing a URL.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UrlError {
    /// Missing or unsupported scheme (only `http` is simulated).
    BadScheme,
    /// Empty or malformed host/port.
    BadAuthority,
    /// Method string not recognized.
    UnsupportedMethod,
}

impl fmt::Display for UrlError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            UrlError::BadScheme => write!(f, "unsupported or missing url scheme"),
            UrlError::BadAuthority => write!(f, "malformed host or port"),
            UrlError::UnsupportedMethod => write!(f, "unsupported http method"),
        }
    }
}

impl std::error::Error for UrlError {}

impl FromStr for Url {
    type Err = UrlError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let rest = s.strip_prefix("http://").ok_or(UrlError::BadScheme)?;
        let (authority, path_query) = rest.split_at(rest.find(['/', '?']).unwrap_or(rest.len()));
        if authority.is_empty() {
            return Err(UrlError::BadAuthority);
        }
        let (host, port) = match authority.rsplit_once(':') {
            Some((h, p)) => {
                let port: u16 = p.parse().map_err(|_| UrlError::BadAuthority)?;
                (h, port)
            }
            None => (authority, 80),
        };
        if host.is_empty() {
            return Err(UrlError::BadAuthority);
        }
        let (path, query) = match path_query.split_once('?') {
            Some((p, q)) => (p, Some(q.to_owned())),
            None => (path_query, None),
        };
        Ok(Url {
            host: host.to_owned(),
            port,
            path: if path.is_empty() { "/" } else { path }.to_owned(),
            query,
        })
    }
}

/// An HTTP request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HttpRequest {
    /// Request method.
    pub method: Method,
    /// Target URL.
    pub url: Url,
    /// Header name/value pairs (names case-preserved, matched
    /// case-insensitively).
    pub headers: Vec<(String, String)>,
    /// Entity body.
    pub body: Vec<u8>,
}

impl HttpRequest {
    /// Builds a GET request for `url`.
    ///
    /// # Errors
    ///
    /// Returns [`UrlError`] if `url` does not parse.
    pub fn get(url: &str) -> Result<Self, UrlError> {
        Ok(Self {
            method: Method::Get,
            url: url.parse()?,
            headers: Vec::new(),
            body: Vec::new(),
        })
    }

    /// Builds a POST request with `body`.
    ///
    /// # Errors
    ///
    /// Returns [`UrlError`] if `url` does not parse.
    pub fn post(url: &str, body: impl Into<Vec<u8>>) -> Result<Self, UrlError> {
        Ok(Self {
            method: Method::Post,
            url: url.parse()?,
            headers: Vec::new(),
            body: body.into(),
        })
    }

    /// Adds a header and returns `self` for chaining.
    pub fn header(mut self, name: &str, value: &str) -> Self {
        self.headers.push((name.to_owned(), value.to_owned()));
        self
    }

    /// Looks up a header value, case-insensitively.
    pub fn header_value(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(n, _)| n.eq_ignore_ascii_case(name))
            .map(|(_, v)| v.as_str())
    }
}

/// An HTTP response.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HttpResponse {
    /// Status code.
    pub status: u16,
    /// Header name/value pairs.
    pub headers: Vec<(String, String)>,
    /// Entity body.
    pub body: Vec<u8>,
}

impl HttpResponse {
    /// A `200 OK` response with a UTF-8 text body.
    pub fn ok(body: impl Into<Vec<u8>>) -> Self {
        Self {
            status: 200,
            headers: Vec::new(),
            body: body.into(),
        }
    }

    /// A response with `status` and an empty body.
    pub fn status_only(status: u16) -> Self {
        Self {
            status,
            headers: Vec::new(),
            body: Vec::new(),
        }
    }

    /// Adds a header (builder-style).
    #[must_use]
    pub fn header(mut self, name: impl Into<String>, value: impl Into<String>) -> Self {
        self.headers.push((name.into(), value.into()));
        self
    }

    /// The first header named `name` (case-insensitive), if present.
    pub fn header_value(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(n, _)| n.eq_ignore_ascii_case(name))
            .map(|(_, v)| v.as_str())
    }

    /// Body interpreted as UTF-8 (lossy).
    pub fn body_text(&self) -> String {
        String::from_utf8_lossy(&self.body).into_owned()
    }
}

/// Transport-level failure (distinct from HTTP error statuses, which are
/// successful transports carrying a non-2xx code).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NetworkError {
    /// No server registered for the host.
    UnknownHost,
    /// The data bearer (GPRS in the paper's era) is down.
    NetworkDown,
    /// The request exceeded the configured timeout.
    TimedOut,
}

impl NetworkError {
    /// The error's description, as its `Display` renders it.
    pub fn as_str(self) -> &'static str {
        match self {
            NetworkError::UnknownHost => "unknown host",
            NetworkError::NetworkDown => "network down",
            NetworkError::TimedOut => "request timed out",
        }
    }
}

impl fmt::Display for NetworkError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

impl std::error::Error for NetworkError {}

/// Server-side request handler.
pub type RouteHandler = Box<dyn Fn(&HttpRequest) -> HttpResponse + Send>;

/// One host's routes, by method then path, so a lookup borrows the
/// request's path instead of building an owned key. Host and path keys
/// are shared strings, so a traced request names its route in its span
/// without copying either.
struct Server {
    routes: HashMap<Method, HashMap<Arc<str>, RouteHandler>>,
}

struct NetState {
    servers: HashMap<Arc<str>, Server>,
    base_latency_ms: u64,
    bytes_per_ms: u64,
    down: bool,
}

impl NetState {
    fn round_trip_ms(&self, total_bytes: usize) -> u64 {
        self.base_latency_ms + (total_bytes as u64) / self.bytes_per_ms
    }
}

struct NetMetrics {
    requests: Counter,
    errors: Counter,
    rtt: Histogram,
    clock: SimClock,
}

/// The route-table keys a request matched, for its span.
#[derive(Default)]
struct Route {
    host: Option<Arc<str>>,
    path: Option<Arc<str>>,
}

/// The simulated network: registered servers plus a latency model.
///
/// # Example
///
/// ```
/// use std::sync::Arc;
/// use mobivine_device::event::EventQueue;
/// use mobivine_device::net::{HttpRequest, HttpResponse, Method, SimNetwork};
///
/// let events = Arc::new(EventQueue::new());
/// let net = SimNetwork::new(events);
/// net.register_route("wfm.example", Method::Get, "/ping", |_req| {
///     HttpResponse::ok("pong")
/// });
/// let req = HttpRequest::get("http://wfm.example/ping")?;
/// let (response, _elapsed_ms) = net.execute(&req)?;
/// assert_eq!(response.body_text(), "pong");
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub struct SimNetwork {
    events: Arc<EventQueue>,
    state: Arc<Mutex<NetState>>,
    metrics: OnceLock<NetMetrics>,
}

impl fmt::Debug for SimNetwork {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let state = self.state.lock();
        f.debug_struct("SimNetwork")
            .field("servers", &state.servers.len())
            .field("down", &state.down)
            .finish()
    }
}

impl SimNetwork {
    /// Creates a network pumping async completions through `events`.
    pub fn new(events: Arc<EventQueue>) -> Self {
        Self {
            events,
            state: Arc::new(Mutex::new(NetState {
                servers: HashMap::new(),
                base_latency_ms: 60,
                bytes_per_ms: 4_096,
                down: false,
            })),
            metrics: OnceLock::new(),
        }
    }

    /// Connects this network to a metrics registry. The clock is needed
    /// because the network does not own one: request spans start at the
    /// current virtual time and end after the simulated round trip.
    /// Until bound, the network publishes nothing. A second binding is
    /// ignored.
    pub fn bind_metrics(&self, registry: Arc<MetricsRegistry>, clock: SimClock) {
        let _ = self.metrics.set(NetMetrics {
            requests: registry.counter("device_net_requests_total", &Labels::empty()),
            errors: registry.counter("device_net_errors_total", &Labels::empty()),
            rtt: registry.histogram("device_net_rtt_ms", &Labels::empty()),
            clock,
        });
    }

    /// Registers a handler for `(method, path)` on `host`, creating the
    /// server if needed. Re-registering a route replaces the handler.
    pub fn register_route<F>(&self, host: &str, method: Method, path: &str, handler: F)
    where
        F: Fn(&HttpRequest) -> HttpResponse + Send + 'static,
    {
        let mut state = self.state.lock();
        state
            .servers
            .entry(host.into())
            .or_insert_with(|| Server {
                routes: HashMap::new(),
            })
            .routes
            .entry(method)
            .or_default()
            .insert(path.into(), Box::new(handler));
    }

    /// Brings the data bearer up or down.
    pub fn set_down(&self, down: bool) {
        self.state.lock().down = down;
    }

    /// Whether the data bearer is currently down.
    pub fn is_down(&self) -> bool {
        self.state.lock().down
    }

    /// Sets the round-trip base latency (default 60 ms).
    pub fn set_base_latency_ms(&self, ms: u64) {
        self.state.lock().base_latency_ms = ms;
    }

    /// Sets the transfer rate in bytes per millisecond (default 4096,
    /// i.e. ~4 MB/s).
    ///
    /// # Panics
    ///
    /// Panics if `bytes_per_ms` is zero.
    pub fn set_bytes_per_ms(&self, bytes_per_ms: u64) {
        assert!(bytes_per_ms > 0, "transfer rate must be non-zero");
        self.state.lock().bytes_per_ms = bytes_per_ms;
    }

    /// Computes the simulated round-trip time for a request/response pair
    /// of the given total byte size.
    pub fn round_trip_ms(&self, total_bytes: usize) -> u64 {
        self.state.lock().round_trip_ms(total_bytes)
    }

    /// Executes a request synchronously, returning the response and the
    /// simulated elapsed milliseconds (the caller advances its clock).
    ///
    /// # Errors
    ///
    /// Returns [`NetworkError::NetworkDown`] if the bearer is down, or
    /// [`NetworkError::UnknownHost`] if no server is registered for the
    /// URL's host. An unrouted path on a known host is a *successful*
    /// transport returning `404`.
    pub fn execute(&self, request: &HttpRequest) -> Result<(HttpResponse, u64), NetworkError> {
        let metrics = self.metrics.get();
        let now = metrics.map_or(0, |m| m.clock.now_ms());
        let mut span = ambient::child("device:net.request", Plane::Device, now);
        if let Some(m) = metrics {
            m.requests.inc();
        }
        let mut route = span.as_ref().map(|_| Route::default());
        let outcome = self.execute_inner(request, route.as_mut());
        if let (Some(s), Some(route)) = (span.as_mut(), route) {
            // A routed request names its route with the table's own
            // keys; only an unrouted one copies the request's strings.
            s.attr("method", request.method.as_str());
            s.attr(
                "host",
                route
                    .host
                    .unwrap_or_else(|| request.url.host.as_str().into()),
            );
            s.attr(
                "path",
                route
                    .path
                    .unwrap_or_else(|| request.url.path.as_str().into()),
            );
        }
        match &outcome {
            Ok((response, elapsed)) => {
                if let Some(m) = metrics {
                    m.rtt.record(*elapsed);
                }
                if let Some(mut s) = span {
                    s.attr("status", u64::from(response.status));
                    s.end(now + elapsed);
                }
            }
            Err(err) => {
                if let Some(m) = metrics {
                    m.errors.inc();
                }
                if let Some(mut s) = span {
                    s.attr("error", err.as_str());
                    s.end(now);
                }
            }
        }
        outcome
    }

    /// Runs `request` against its route. When `route` is given, it
    /// receives the route table's host and path keys that matched.
    fn execute_inner(
        &self,
        request: &HttpRequest,
        route: Option<&mut Route>,
    ) -> Result<(HttpResponse, u64), NetworkError> {
        let state = self.state.lock();
        if state.down {
            return Err(NetworkError::NetworkDown);
        }
        let (host, server) = state
            .servers
            .get_key_value(request.url.host.as_str())
            .ok_or(NetworkError::UnknownHost)?;
        let handler = server
            .routes
            .get(&request.method)
            .and_then(|paths| paths.get_key_value(request.url.path.as_str()));
        if let Some(route) = route {
            route.host = Some(Arc::clone(host));
            route.path = handler.map(|(path, _)| Arc::clone(path));
        }
        let response = match handler {
            Some((_, handler)) => handler(request),
            None => HttpResponse::status_only(404),
        };
        let elapsed = state.round_trip_ms(request.body.len() + response.body.len());
        Ok((response, elapsed))
    }

    /// Executes a request asynchronously: the callback fires with the
    /// result when the event queue is pumped past `now_ms + round-trip`.
    ///
    /// Transport failures are evaluated at submission time and still
    /// delivered asynchronously (after the base latency), matching how a
    /// real stack reports connection errors.
    pub fn execute_async<F>(&self, request: HttpRequest, now_ms: u64, callback: F)
    where
        F: FnOnce(Result<HttpResponse, NetworkError>) + Send + 'static,
    {
        let outcome = self.execute(&request);
        let (fire_at, result) = match outcome {
            Ok((response, elapsed)) => (now_ms + elapsed, Ok(response)),
            Err(err) => (now_ms + self.state.lock().base_latency_ms, Err(err)),
        };
        self.events.schedule_at(fire_at, "http-complete", move |_| {
            callback(result);
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex as StdMutex;

    fn network() -> (Arc<EventQueue>, SimNetwork) {
        let events = Arc::new(EventQueue::new());
        let net = SimNetwork::new(Arc::clone(&events));
        (events, net)
    }

    #[test]
    fn url_parses_full_form() {
        let url: Url = "http://h.example:8080/a/b?x=1&y=2".parse().unwrap();
        assert_eq!(url.host, "h.example");
        assert_eq!(url.port, 8080);
        assert_eq!(url.path, "/a/b");
        assert_eq!(url.query.as_deref(), Some("x=1&y=2"));
    }

    #[test]
    fn url_defaults_port_and_path() {
        let url: Url = "http://h.example".parse().unwrap();
        assert_eq!(url.port, 80);
        assert_eq!(url.path, "/");
        assert_eq!(url.query, None);
    }

    #[test]
    fn url_rejects_bad_scheme_and_host() {
        assert_eq!("ftp://x/".parse::<Url>(), Err(UrlError::BadScheme));
        assert_eq!("http://".parse::<Url>(), Err(UrlError::BadAuthority));
        assert_eq!(
            "http://h:notaport/".parse::<Url>(),
            Err(UrlError::BadAuthority)
        );
    }

    #[test]
    fn url_display_round_trips() {
        let s = "http://h.example:81/p?q=1";
        let url: Url = s.parse().unwrap();
        assert_eq!(url.to_string(), s);
        assert_eq!(url.to_string().parse::<Url>().unwrap(), url);
    }

    /// Parses `s`, checks the result against the expected parts, and
    /// checks that its `Display` form parses back to it.
    fn assert_parses(s: &str, host: &str, port: u16, path: &str, query: Option<&str>) {
        let url: Url = s.parse().unwrap();
        assert_eq!(
            (url.host.as_str(), url.port, url.path.as_str()),
            (host, port, path),
            "{s}"
        );
        assert_eq!(url.query.as_deref(), query, "{s}");
        assert_eq!(url.to_string().parse::<Url>().unwrap(), url, "{s}");
    }

    #[test]
    fn url_query_may_follow_the_host() {
        assert_parses(
            "http://wfm.example?agent=7",
            "wfm.example",
            80,
            "/",
            Some("agent=7"),
        );
    }

    #[test]
    fn url_query_may_follow_the_port() {
        assert_parses(
            "http://wfm.example:8080?agent=7",
            "wfm.example",
            8080,
            "/",
            Some("agent=7"),
        );
    }

    #[test]
    fn url_slash_in_a_query_does_not_start_the_path() {
        assert_parses("http://h?next=/a", "h", 80, "/", Some("next=/a"));
    }

    #[test]
    fn re_registering_a_route_replaces_only_its_handler() {
        let (_events, net) = network();
        net.register_route("s", Method::Get, "/x", |_| HttpResponse::ok("old"));
        net.register_route("s", Method::Post, "/x", |_| HttpResponse::ok("post"));
        net.register_route("s", Method::Get, "/x", |_| HttpResponse::ok("new"));
        let get = HttpRequest::get("http://s/x").unwrap();
        assert_eq!(net.execute(&get).unwrap().0.body_text(), "new");
        let post = HttpRequest::post("http://s/x", "").unwrap();
        assert_eq!(net.execute(&post).unwrap().0.body_text(), "post");
    }

    #[test]
    fn routed_request_gets_handler_response() {
        let (_events, net) = network();
        net.register_route("s", Method::Get, "/hello", |_| HttpResponse::ok("hi"));
        let req = HttpRequest::get("http://s/hello").unwrap();
        let (resp, elapsed) = net.execute(&req).unwrap();
        assert_eq!(resp.status, 200);
        assert_eq!(resp.body_text(), "hi");
        assert!(elapsed >= 60);
    }

    #[test]
    fn unrouted_path_is_404() {
        let (_events, net) = network();
        net.register_route("s", Method::Get, "/hello", |_| HttpResponse::ok("hi"));
        let req = HttpRequest::get("http://s/missing").unwrap();
        let (resp, _) = net.execute(&req).unwrap();
        assert_eq!(resp.status, 404);
    }

    #[test]
    fn unknown_host_is_transport_error() {
        let (_events, net) = network();
        let req = HttpRequest::get("http://ghost/x").unwrap();
        assert_eq!(net.execute(&req), Err(NetworkError::UnknownHost));
    }

    #[test]
    fn network_down_fails_everything() {
        let (_events, net) = network();
        net.register_route("s", Method::Get, "/x", |_| HttpResponse::ok(""));
        net.set_down(true);
        let req = HttpRequest::get("http://s/x").unwrap();
        assert_eq!(net.execute(&req), Err(NetworkError::NetworkDown));
        net.set_down(false);
        assert!(net.execute(&req).is_ok());
    }

    #[test]
    fn handler_sees_method_body_and_headers() {
        let (_events, net) = network();
        net.register_route("s", Method::Post, "/echo", |req| {
            assert_eq!(req.header_value("content-type"), Some("text/plain"));
            HttpResponse::ok(req.body.clone())
        });
        let req = HttpRequest::post("http://s/echo", "payload")
            .unwrap()
            .header("Content-Type", "text/plain");
        let (resp, _) = net.execute(&req).unwrap();
        assert_eq!(resp.body_text(), "payload");
    }

    #[test]
    fn latency_grows_with_payload() {
        let (_events, net) = network();
        net.set_base_latency_ms(10);
        net.set_bytes_per_ms(1);
        net.register_route("s", Method::Post, "/big", |_| HttpResponse::ok(""));
        let small = HttpRequest::post("http://s/big", vec![0u8; 10]).unwrap();
        let large = HttpRequest::post("http://s/big", vec![0u8; 1000]).unwrap();
        let (_, t_small) = net.execute(&small).unwrap();
        let (_, t_large) = net.execute(&large).unwrap();
        assert!(t_large > t_small);
        assert_eq!(t_small, 20);
        assert_eq!(t_large, 1010);
    }

    #[test]
    fn async_execution_fires_after_latency() {
        let (events, net) = network();
        net.register_route("s", Method::Get, "/x", |_| HttpResponse::ok("ok"));
        let result = Arc::new(StdMutex::new(None));
        let sink = Arc::clone(&result);
        let req = HttpRequest::get("http://s/x").unwrap();
        net.execute_async(req, 0, move |r| {
            *sink.lock().unwrap() = Some(r);
        });
        assert!(result.lock().unwrap().is_none());
        events.run_until(1_000);
        let got = result.lock().unwrap().take().unwrap().unwrap();
        assert_eq!(got.body_text(), "ok");
    }

    #[test]
    fn async_transport_error_delivered_async() {
        let (events, net) = network();
        let result = Arc::new(StdMutex::new(None));
        let sink = Arc::clone(&result);
        let req = HttpRequest::get("http://ghost/x").unwrap();
        net.execute_async(req, 0, move |r| {
            *sink.lock().unwrap() = Some(r);
        });
        events.run_until(1_000);
        assert_eq!(
            result.lock().unwrap().take().unwrap(),
            Err(NetworkError::UnknownHost)
        );
    }

    #[test]
    fn method_parses_case_insensitively() {
        assert_eq!("get".parse::<Method>().unwrap(), Method::Get);
        assert_eq!("POST".parse::<Method>().unwrap(), Method::Post);
        assert!("PATCH".parse::<Method>().is_err());
    }
}
