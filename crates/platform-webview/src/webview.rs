//! The WebView page context.
//!
//! A [`WebView`] hosts "applications written in Web content language"
//! over an Android [`Context`]. Java objects become JavaScript entities
//! via [`WebView::add_javascript_interface`]; the page's JavaScript code
//! reaches them through [`WebView::js_interface`].

use std::collections::HashMap;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;

use mobivine_android::Context;

use crate::bridge::{BridgeError, ErrorCode, JavaScriptInterface};
use crate::notification::NotificationTable;
use crate::value::JsValue;
use crate::wire::{BatchReplies, NodeId, WireBuf, WireValue};

/// A WebView page hosting JavaScript with injected Java interfaces.
///
/// # Example
///
/// ```
/// use std::sync::Arc;
/// use mobivine_android::{AndroidPlatform, SdkVersion};
/// use mobivine_device::Device;
/// use mobivine_webview::bridge::{BridgeError, JavaScriptInterface};
/// use mobivine_webview::{JsValue, WebView};
///
/// struct Echo;
/// impl JavaScriptInterface for Echo {
///     fn call(&self, method: &str, args: &[JsValue]) -> Result<JsValue, BridgeError> {
///         match method {
///             "echo" => Ok(args.first().cloned().unwrap_or(JsValue::Undefined)),
///             other => Err(BridgeError::bridge(format!("no method {other}"))),
///         }
///     }
/// }
///
/// let platform = AndroidPlatform::new(Device::builder().build(), SdkVersion::M5Rc15);
/// let webview = WebView::new(platform.new_context());
/// webview.add_javascript_interface(Arc::new(Echo), "EchoBridge");
/// let handle = webview.js_interface("EchoBridge").unwrap();
/// let out = handle.invoke("echo", &[JsValue::str("hi")]).unwrap();
/// assert_eq!(out, JsValue::str("hi"));
/// ```
pub struct WebView {
    ctx: Context,
    interfaces: Arc<Mutex<HashMap<String, Arc<dyn JavaScriptInterface>>>>,
    notifications: Arc<NotificationTable>,
    loaded: std::sync::atomic::AtomicBool,
    crossings: Arc<AtomicU64>,
}

impl fmt::Debug for WebView {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("WebView")
            .field("interfaces", &self.interfaces.lock().len())
            .finish()
    }
}

impl WebView {
    /// Creates a page context on an Android application context. The
    /// page starts loaded.
    pub fn new(ctx: Context) -> Self {
        Self {
            ctx,
            interfaces: Arc::new(Mutex::new(HashMap::new())),
            notifications: Arc::new(NotificationTable::new()),
            loaded: std::sync::atomic::AtomicBool::new(true),
            crossings: Arc::new(AtomicU64::new(0)),
        }
    }

    /// Total bridge crossings made through handles of this page, across
    /// every invocation flavour. A batched call of N frames counts as
    /// one crossing — the whole point of batching.
    pub fn bridge_crossings(&self) -> u64 {
        self.crossings.load(Ordering::Relaxed)
    }

    /// Whether the page is still loaded.
    pub fn is_loaded(&self) -> bool {
        self.loaded.load(std::sync::atomic::Ordering::SeqCst)
    }

    /// Unloads the page: the JavaScript context is destroyed, so every
    /// injected interface disappears and every notification row closes
    /// (pending and future notifications are dropped). Idempotent.
    pub fn unload(&self) {
        self.loaded
            .store(false, std::sync::atomic::Ordering::SeqCst);
        self.interfaces.lock().clear();
        self.notifications.close_all();
    }

    /// The Android context this page runs on.
    pub fn context(&self) -> &Context {
        &self.ctx
    }

    /// The page's notification table (shared by all wrappers injected
    /// into this page).
    pub fn notifications(&self) -> &Arc<NotificationTable> {
        &self.notifications
    }

    /// `addJavaScriptInterface(object, name)` — injects a Java object
    /// as a JavaScript global. Re-injecting a name replaces the object,
    /// as on the real platform. Injection into an unloaded page is a
    /// no-op (there is no JavaScript context to inject into).
    pub fn add_javascript_interface(&self, object: Arc<dyn JavaScriptInterface>, name: &str) {
        if !self.is_loaded() {
            return;
        }
        self.interfaces.lock().insert(name.to_owned(), object);
    }

    /// Removes an injected interface. Returns `true` if it existed.
    pub fn remove_javascript_interface(&self, name: &str) -> bool {
        self.interfaces.lock().remove(name).is_some()
    }

    /// Resolves an injected interface from the JavaScript side.
    pub fn js_interface(&self, name: &str) -> Option<JsInterfaceHandle> {
        self.interfaces
            .lock()
            .get(name)
            .map(|object| JsInterfaceHandle {
                name: name.to_owned(),
                object: Arc::clone(object),
                crossings: Arc::clone(&self.crossings),
                scratch: Arc::new(Mutex::new(WireScratch::default())),
            })
    }

    /// Names of all injected interfaces, sorted.
    pub fn interface_names(&self) -> Vec<String> {
        let mut names: Vec<String> = self.interfaces.lock().keys().cloned().collect();
        names.sort();
        names
    }
}

/// The reusable call/reply arena pair behind one interface handle —
/// "one scratch pair per device/handle". Cleared (capacity retained)
/// at the start of every wire invocation, so a warmed handle crosses
/// the bridge without allocating.
#[derive(Default)]
pub struct WireScratch {
    call: WireBuf,
    reply: WireBuf,
}

/// The JavaScript-side view of an injected Java object.
#[derive(Clone)]
pub struct JsInterfaceHandle {
    name: String,
    object: Arc<dyn JavaScriptInterface>,
    crossings: Arc<AtomicU64>,
    scratch: Arc<Mutex<WireScratch>>,
}

impl fmt::Debug for JsInterfaceHandle {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("JsInterfaceHandle")
            .field("name", &self.name)
            .finish()
    }
}

impl JsInterfaceHandle {
    /// The global name the interface was injected under.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Invokes a method across the bridge. Function-valued arguments
    /// cannot cross (paper footnote 8); the bridge only carries
    /// [`JsValue`]s, so callback wiring must go through the
    /// notification table.
    ///
    /// # Errors
    ///
    /// Propagates the wrapper's [`BridgeError`] (an error code plus
    /// message, per the paper's exception mapping).
    pub fn invoke(&self, method: &str, args: &[JsValue]) -> Result<JsValue, BridgeError> {
        self.crossings.fetch_add(1, Ordering::Relaxed);
        self.object.call(method, args)
    }

    /// Invokes a method across the bridge carrying the full marshalled
    /// call context: an optional W3C `traceparent` plus the caller's
    /// remaining deadline budget in virtual milliseconds. Wrappers that
    /// are neither trace- nor deadline-aware ignore both.
    ///
    /// # Errors
    ///
    /// Same as [`JsInterfaceHandle::invoke`]; deadline-aware wrappers
    /// additionally fail fast with a deadline-coded error when the
    /// budget is already exhausted.
    pub fn invoke_with_context(
        &self,
        method: &str,
        args: &[JsValue],
        traceparent: Option<&str>,
        deadline_budget_ms: Option<u64>,
    ) -> Result<JsValue, BridgeError> {
        self.crossings.fetch_add(1, Ordering::Relaxed);
        self.object
            .call_with_context(method, args, traceparent, deadline_budget_ms)
    }

    /// Invokes a method through the zero-copy wire path: `encode` writes
    /// the argument array into the handle's reusable call arena,
    /// [`JavaScriptInterface::call_wire`] services it, and `decode`
    /// reads the reply view. Both arenas are cleared (capacity retained)
    /// first, so a warmed handle allocates nothing here.
    ///
    /// # Errors
    ///
    /// Same as [`JsInterfaceHandle::invoke`].
    pub fn invoke_wire<T>(
        &self,
        method: &str,
        traceparent: Option<&str>,
        deadline_budget_ms: Option<u64>,
        encode: impl FnOnce(&mut WireBuf) -> NodeId,
        decode: impl FnOnce(WireValue<'_>) -> Result<T, BridgeError>,
    ) -> Result<T, BridgeError> {
        self.crossings.fetch_add(1, Ordering::Relaxed);
        let mut scratch = self.scratch.lock();
        let WireScratch { call, reply } = &mut *scratch;
        call.clear();
        reply.clear();
        let args = encode(call);
        let node = self.object.call_wire(
            method,
            call.view(args),
            reply,
            traceparent,
            deadline_budget_ms,
        )?;
        decode(reply.view(node))
    }

    /// One crossing carrying N queued calls: `encode` pushes call
    /// frames (method + argument array each), the interface services
    /// them via [`JavaScriptInterface::call_batch`], and `decode` reads
    /// the reply frames — one per call, in order, each carrying either
    /// a result view or its own error code.
    ///
    /// # Errors
    ///
    /// Returns a bridge-coded error when the interface produced a
    /// mismatched reply count; per-entry failures are surfaced to
    /// `decode` inside the reply cursor instead of failing the batch.
    pub fn invoke_batch<T>(
        &self,
        traceparent: Option<&str>,
        deadline_budget_ms: Option<u64>,
        encode: impl FnOnce(&mut WireBuf),
        decode: impl FnOnce(BatchReplies<'_>) -> Result<T, BridgeError>,
    ) -> Result<T, BridgeError> {
        self.crossings.fetch_add(1, Ordering::Relaxed);
        let mut scratch = self.scratch.lock();
        let WireScratch { call, reply } = &mut *scratch;
        call.clear();
        reply.clear();
        encode(call);
        self.object
            .call_batch(call, reply, traceparent, deadline_budget_ms);
        if reply.reply_count() != call.frame_count() {
            return Err(BridgeError {
                code: ErrorCode::Bridge,
                message: format!(
                    "batch of {} frames produced {} replies",
                    call.frame_count(),
                    reply.reply_count()
                ),
            });
        }
        decode(reply.replies())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bridge::ErrorCode;
    use mobivine_android::{AndroidPlatform, SdkVersion};
    use mobivine_device::Device;

    struct Adder;

    impl JavaScriptInterface for Adder {
        fn call(&self, method: &str, args: &[JsValue]) -> Result<JsValue, BridgeError> {
            match method {
                "add" => {
                    let a = crate::bridge::args::number(args, 0)?;
                    let b = crate::bridge::args::number(args, 1)?;
                    Ok(JsValue::Number(a + b))
                }
                other => Err(BridgeError::bridge(format!("unknown method {other}"))),
            }
        }
    }

    fn webview() -> WebView {
        let platform = AndroidPlatform::new(Device::builder().build(), SdkVersion::M5Rc15);
        WebView::new(platform.new_context())
    }

    #[test]
    fn inject_and_invoke() {
        let wv = webview();
        wv.add_javascript_interface(Arc::new(Adder), "Calc");
        let calc = wv.js_interface("Calc").unwrap();
        let out = calc
            .invoke("add", &[JsValue::Number(2.0), JsValue::Number(3.0)])
            .unwrap();
        assert_eq!(out, JsValue::Number(5.0));
    }

    #[test]
    fn missing_interface_is_none() {
        assert!(webview().js_interface("Ghost").is_none());
    }

    #[test]
    fn unknown_method_is_bridge_error() {
        let wv = webview();
        wv.add_javascript_interface(Arc::new(Adder), "Calc");
        let err = wv
            .js_interface("Calc")
            .unwrap()
            .invoke("mul", &[])
            .unwrap_err();
        assert_eq!(err.code, ErrorCode::Bridge);
    }

    #[test]
    fn type_mismatch_is_bridge_error() {
        let wv = webview();
        wv.add_javascript_interface(Arc::new(Adder), "Calc");
        let err = wv
            .js_interface("Calc")
            .unwrap()
            .invoke("add", &[JsValue::str("two"), JsValue::Number(1.0)])
            .unwrap_err();
        assert_eq!(err.code, ErrorCode::Bridge);
        assert!(err.message.contains("argument 0"));
    }

    #[test]
    fn reinjection_replaces_and_removal_works() {
        struct Zero;
        impl JavaScriptInterface for Zero {
            fn call(&self, _m: &str, _a: &[JsValue]) -> Result<JsValue, BridgeError> {
                Ok(JsValue::Number(0.0))
            }
        }
        let wv = webview();
        wv.add_javascript_interface(Arc::new(Adder), "X");
        wv.add_javascript_interface(Arc::new(Zero), "X");
        let out = wv
            .js_interface("X")
            .unwrap()
            .invoke("anything", &[])
            .unwrap();
        assert_eq!(out, JsValue::Number(0.0));
        assert!(wv.remove_javascript_interface("X"));
        assert!(!wv.remove_javascript_interface("X"));
        assert!(wv.js_interface("X").is_none());
    }

    #[test]
    fn interface_names_sorted() {
        let wv = webview();
        wv.add_javascript_interface(Arc::new(Adder), "Zeta");
        wv.add_javascript_interface(Arc::new(Adder), "Alpha");
        assert_eq!(wv.interface_names(), vec!["Alpha", "Zeta"]);
    }

    #[test]
    fn call_only_interface_services_wire_invocations() {
        // `Adder` implements nothing but `call`; the default-delegation
        // chain (call_wire → call_with_context → call)
        // must still service the zero-copy entry point.
        let wv = webview();
        wv.add_javascript_interface(Arc::new(Adder), "Calc");
        let calc = wv.js_interface("Calc").unwrap();
        let sum = calc
            .invoke_wire(
                "add",
                Some("00-0000000000000000000000000000002a-000000000000002a-01"),
                Some(5_000),
                |buf| {
                    let mark = buf.begin();
                    let a = buf.push_number(2.0);
                    buf.stage_item(a);
                    let b = buf.push_number(3.0);
                    buf.stage_item(b);
                    buf.end_array(mark)
                },
                |reply| {
                    reply
                        .as_number()
                        .ok_or_else(|| BridgeError::bridge("expected a number"))
                },
            )
            .unwrap();
        assert_eq!(sum, 5.0);
    }

    #[test]
    fn call_only_interface_services_batches_with_per_entry_errors() {
        let wv = webview();
        wv.add_javascript_interface(Arc::new(Adder), "Calc");
        let calc = wv.js_interface("Calc").unwrap();
        let out = calc
            .invoke_batch(
                None,
                None,
                |buf| {
                    let mark = buf.begin();
                    let a = buf.push_number(1.0);
                    buf.stage_item(a);
                    let b = buf.push_number(2.0);
                    buf.stage_item(b);
                    let args = buf.end_array(mark);
                    buf.push_frame("add", args);
                    let bad = buf.empty_args();
                    buf.push_frame("mul", bad);
                    let args2 = {
                        let mark = buf.begin();
                        let a = buf.push_number(10.0);
                        buf.stage_item(a);
                        let b = buf.push_number(20.0);
                        buf.stage_item(b);
                        buf.end_array(mark)
                    };
                    buf.push_frame("add", args2);
                },
                |replies| {
                    Ok(replies
                        .map(|r| match r {
                            Ok(v) => Ok(v.as_number().unwrap()),
                            Err((code, _)) => Err(code),
                        })
                        .collect::<Vec<_>>())
                },
            )
            .unwrap();
        assert_eq!(out.len(), 3);
        assert_eq!(out[0], Ok(3.0));
        assert_eq!(out[1], Err(ErrorCode::Bridge));
        assert_eq!(out[2], Ok(30.0));
    }

    #[test]
    fn crossings_count_every_invocation_once() {
        let wv = webview();
        wv.add_javascript_interface(Arc::new(Adder), "Calc");
        let calc = wv.js_interface("Calc").unwrap();
        assert_eq!(wv.bridge_crossings(), 0);
        let _ = calc.invoke("add", &[JsValue::Number(1.0), JsValue::Number(1.0)]);
        let _ = calc.invoke_with_context(
            "add",
            &[JsValue::Number(1.0), JsValue::Number(1.0)],
            None,
            None,
        );
        // A three-frame batch is still one crossing.
        let _ = calc.invoke_batch(
            None,
            None,
            |buf| {
                for _ in 0..3 {
                    let args = buf.empty_args();
                    buf.push_frame("mul", args);
                }
            },
            |_replies| Ok(()),
        );
        assert_eq!(wv.bridge_crossings(), 3);
    }

    #[test]
    fn unload_destroys_the_javascript_context() {
        let wv = webview();
        wv.add_javascript_interface(Arc::new(Adder), "Calc");
        let id = wv.notifications().allocate();
        wv.notifications().post(id, JsValue::Number(1.0));
        assert!(wv.is_loaded());
        wv.unload();
        assert!(!wv.is_loaded());
        assert!(wv.js_interface("Calc").is_none());
        assert_eq!(wv.notifications().open_rows(), 0);
        assert!(!wv.notifications().post(id, JsValue::Number(2.0)));
        // Injection into a dead page is a no-op.
        wv.add_javascript_interface(Arc::new(Adder), "Late");
        assert!(wv.js_interface("Late").is_none());
        // Idempotent.
        wv.unload();
    }
}
