#![warn(missing_docs)]
//! Simulated Android WebView platform.
//!
//! "Android WebView renders applications written in Web content language,
//! such as HTML and JavaScript. To enable platform interfaces ... Android
//! offers a generic API `addJavaScriptInterface()` to add a Java object
//! inside a WebView application, treat it as a JavaScript entity, and use
//! the same for invoking a native platform interface." (paper §4.1)
//!
//! This crate models that environment:
//!
//! - [`value::JsValue`] — the dynamically-typed JavaScript value world
//!   that crosses the bridge,
//! - [`webview::WebView`] — a page context created from an Android
//!   [`mobivine_android::Context`], with
//!   [`webview::WebView::add_javascript_interface`],
//! - [`bridge`] — Java↔JS marshalling rules, including the constraint
//!   that exceptions propagate as **error codes** (paper §4.1, step 2),
//! - [`notification`] — the **Notification Table** plus polling
//!   `notifHandler`, needed because "callback notifications received by
//!   an underlying Java object are not available to the invoking call in
//!   JavaScript" (paper footnote 8).

pub mod bridge;
pub mod notification;
pub mod value;
pub mod webview;
pub mod wire;

pub use bridge::{BridgeError, ErrorCode};
pub use value::JsValue;
pub use webview::WebView;
pub use wire::{NodeId, WireBuf, WireValue};
