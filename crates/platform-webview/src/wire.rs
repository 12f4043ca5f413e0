//! Arena-backed zero-copy wire format for the JavaScript bridge.
//!
//! Every `addJavaScriptInterface` crossing used to marshal arguments and
//! results as owned [`JsValue`] trees — one heap allocation per string,
//! one `Vec`/`BTreeMap` per container, on every call.  This module
//! replaces that with a reusable arena: a [`WireBuf`] owns flat vectors
//! of nodes, bytes and child links, values are encoded as offsets into
//! those vectors, and [`WireValue`] is a borrowed *view* over one node.
//! [`WireBuf::clear`] resets the lengths but keeps the capacity, so a
//! warmed buffer services an unbounded stream of calls without touching
//! the heap again.
//!
//! Layout invariants (see DESIGN.md §14):
//!
//! * `nodes` is append-only between clears; a [`NodeId`] indexes it and
//!   stays valid until the next `clear`.
//! * Strings and object keys live in the `bytes` arena as `(start, len)`
//!   spans; the arena holds only valid UTF-8 because every span is
//!   copied from a `&str`.
//! * Containers reference a *contiguous* `(kids_start, kids_len)` range
//!   of the `kids` vector.  Contiguity under arbitrary nesting is
//!   achieved by staging children in `scratch` (a per-buffer stack):
//!   [`WireBuf::begin`] records a mark, children are staged above it,
//!   and [`WireBuf::end_array`]/[`WireBuf::end_object`] drain the staged
//!   range into `kids` in one go.  Inner containers always finish before
//!   their parent stages the next child, so ranges never interleave.

use crate::bridge::BridgeError;
use crate::value::JsValue;

/// Index of an encoded value inside a [`WireBuf`].
///
/// Valid until the owning buffer is cleared.  Ids are only meaningful
/// for the buffer that produced them.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct NodeId(u32);

/// One encoded value.  Strings and containers hold spans into the
/// owning buffer's `bytes` / `kids` arenas.
#[derive(Clone, Copy, Debug)]
enum Node {
    Undefined,
    Null,
    Bool(bool),
    Number(f64),
    Str { start: u32, len: u32 },
    Array { kids_start: u32, kids_len: u32 },
    Object { kids_start: u32, kids_len: u32 },
}

/// One child of a container: a key span (zero-length for array items)
/// plus the child's node.
#[derive(Clone, Copy, Debug)]
struct Kid {
    key_start: u32,
    key_len: u32,
    node: NodeId,
}

/// Reusable arena for encoding bridge calls and replies.
///
/// Cleared-not-freed: [`clear`](Self::clear) keeps all capacity, so a
/// warmed buffer encodes without allocating.
#[derive(Default)]
pub struct WireBuf {
    nodes: Vec<Node>,
    bytes: Vec<u8>,
    kids: Vec<Kid>,
    scratch: Vec<Kid>,
}

impl WireBuf {
    /// Creates an empty buffer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Resets all arenas to length zero while retaining their capacity.
    pub fn clear(&mut self) {
        self.nodes.clear();
        self.bytes.clear();
        self.kids.clear();
        self.scratch.clear();
    }

    fn push_node(&mut self, node: Node) -> NodeId {
        let id = NodeId(self.nodes.len() as u32);
        self.nodes.push(node);
        id
    }

    fn push_bytes(&mut self, s: &str) -> (u32, u32) {
        let start = self.bytes.len() as u32;
        self.bytes.extend_from_slice(s.as_bytes());
        (start, s.len() as u32)
    }

    fn span_str(&self, start: u32, len: u32) -> &str {
        let range = start as usize..(start + len) as usize;
        // Invariant: every span was copied from a `&str`, so the arena
        // slice is valid UTF-8 at `&str` boundaries.
        core::str::from_utf8(&self.bytes[range]).expect("wire byte arena holds valid UTF-8")
    }

    /// Encodes `undefined`.
    pub fn push_undefined(&mut self) -> NodeId {
        self.push_node(Node::Undefined)
    }

    /// Encodes `null`.
    pub fn push_null(&mut self) -> NodeId {
        self.push_node(Node::Null)
    }

    /// Encodes a boolean.
    pub fn push_bool(&mut self, value: bool) -> NodeId {
        self.push_node(Node::Bool(value))
    }

    /// Encodes a number.
    pub fn push_number(&mut self, value: f64) -> NodeId {
        self.push_node(Node::Number(value))
    }

    /// Encodes a string by copying it into the byte arena.
    pub fn push_str(&mut self, value: &str) -> NodeId {
        let (start, len) = self.push_bytes(value);
        self.push_node(Node::Str { start, len })
    }

    /// Opens a container; returns the scratch mark to pass back to
    /// [`end_array`](Self::end_array) / [`end_object`](Self::end_object).
    pub fn begin(&mut self) -> usize {
        self.scratch.len()
    }

    /// Stages an already-encoded node as the next array item of the
    /// innermost open container.
    pub fn stage_item(&mut self, node: NodeId) {
        self.scratch.push(Kid {
            key_start: 0,
            key_len: 0,
            node,
        });
    }

    /// Stages an already-encoded node as a keyed entry of the innermost
    /// open object.
    pub fn stage_entry(&mut self, key: &str, node: NodeId) {
        let (key_start, key_len) = self.push_bytes(key);
        self.scratch.push(Kid {
            key_start,
            key_len,
            node,
        });
    }

    fn drain_scratch(&mut self, mark: usize) -> (u32, u32) {
        let kids_start = self.kids.len() as u32;
        let kids_len = (self.scratch.len() - mark) as u32;
        self.kids.extend(self.scratch.drain(mark..));
        (kids_start, kids_len)
    }

    /// Closes an array opened at `mark`, draining its staged items into
    /// a contiguous kid range.
    pub fn end_array(&mut self, mark: usize) -> NodeId {
        let (kids_start, kids_len) = self.drain_scratch(mark);
        self.push_node(Node::Array {
            kids_start,
            kids_len,
        })
    }

    /// Closes an object opened at `mark`, draining its staged entries
    /// into a contiguous kid range.
    pub fn end_object(&mut self, mark: usize) -> NodeId {
        let (kids_start, kids_len) = self.drain_scratch(mark);
        self.push_node(Node::Object {
            kids_start,
            kids_len,
        })
    }

    /// Encodes an empty argument array — the common no-argument call.
    pub fn empty_args(&mut self) -> NodeId {
        let mark = self.begin();
        self.end_array(mark)
    }

    /// Recursively encodes an owned [`JsValue`] tree.
    pub fn push_js(&mut self, value: &JsValue) -> NodeId {
        match value {
            JsValue::Undefined => self.push_undefined(),
            JsValue::Null => self.push_null(),
            JsValue::Bool(b) => self.push_bool(*b),
            JsValue::Number(n) => self.push_number(*n),
            JsValue::Str(s) => self.push_str(s),
            JsValue::Array(items) => {
                let mark = self.begin();
                for item in items {
                    let node = self.push_js(item);
                    self.stage_item(node);
                }
                self.end_array(mark)
            }
            JsValue::Object(map) => {
                let mark = self.begin();
                for (key, item) in map {
                    let node = self.push_js(item);
                    self.stage_entry(key, node);
                }
                self.end_object(mark)
            }
        }
    }

    /// A borrowed view over one encoded node.
    pub fn view(&self, node: NodeId) -> WireValue<'_> {
        WireValue { buf: self, node }
    }
}

/// Borrowed view over one node of a [`WireBuf`].
#[derive(Clone, Copy)]
pub struct WireValue<'a> {
    buf: &'a WireBuf,
    node: NodeId,
}

impl<'a> WireValue<'a> {
    fn node(&self) -> Node {
        self.buf.nodes[self.node.0 as usize]
    }

    /// JavaScript `typeof`-style tag, mirroring [`JsValue::type_of`].
    pub fn type_of(&self) -> &'static str {
        match self.node() {
            Node::Undefined => "undefined",
            Node::Null | Node::Array { .. } | Node::Object { .. } => "object",
            Node::Bool(_) => "boolean",
            Node::Number(_) => "number",
            Node::Str { .. } => "string",
        }
    }

    /// `true` for `undefined` and `null`.
    pub fn is_nullish(&self) -> bool {
        matches!(self.node(), Node::Undefined | Node::Null)
    }

    /// The numeric payload, if this is a number.
    pub fn as_number(&self) -> Option<f64> {
        match self.node() {
            Node::Number(n) => Some(n),
            _ => None,
        }
    }

    /// The boolean payload, if this is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self.node() {
            Node::Bool(b) => Some(b),
            _ => None,
        }
    }

    /// The borrowed string payload, if this is a string.
    pub fn as_str(&self) -> Option<&'a str> {
        match self.node() {
            Node::Str { start, len } => Some(self.buf.span_str(start, len)),
            _ => None,
        }
    }

    /// Number of children, for arrays and objects; 0 otherwise.
    pub fn len(&self) -> usize {
        match self.node() {
            Node::Array { kids_len, .. } | Node::Object { kids_len, .. } => kids_len as usize,
            _ => 0,
        }
    }

    /// Whether this container has no children (also `true` for scalars).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    fn kid(&self, i: usize) -> Option<Kid> {
        match self.node() {
            Node::Array {
                kids_start,
                kids_len,
            }
            | Node::Object {
                kids_start,
                kids_len,
            } if (i as u32) < kids_len => Some(self.buf.kids[kids_start as usize + i]),
            _ => None,
        }
    }

    /// The `i`-th array item (or object value, in insertion order).
    pub fn item(&self, i: usize) -> Option<WireValue<'a>> {
        self.kid(i).map(|kid| self.buf.view(kid.node))
    }

    /// The `i`-th object entry as `(key, value)`.
    pub fn entry(&self, i: usize) -> Option<(&'a str, WireValue<'a>)> {
        self.kid(i).map(|kid| {
            (
                self.buf.span_str(kid.key_start, kid.key_len),
                self.buf.view(kid.node),
            )
        })
    }

    /// Looks up an object entry by key without cloning.
    pub fn get(&self, key: &str) -> Option<WireValue<'a>> {
        if let Node::Object {
            kids_start,
            kids_len,
        } = self.node()
        {
            let range = kids_start as usize..(kids_start + kids_len) as usize;
            for kid in &self.buf.kids[range] {
                if self.buf.span_str(kid.key_start, kid.key_len) == key {
                    return Some(self.buf.view(kid.node));
                }
            }
        }
        None
    }

    /// The `index`-th item of an argument array as a number — the wire
    /// counterpart of [`crate::bridge::args::number`].
    ///
    /// # Errors
    ///
    /// Returns a bridge-coded error naming the position on a missing or
    /// non-numeric argument.
    pub fn number_arg(&self, index: usize) -> Result<f64, BridgeError> {
        self.item(index)
            .and_then(|v| v.as_number())
            .ok_or_else(|| BridgeError::bridge(format!("argument {index} must be a number")))
    }

    /// The `index`-th item of an argument array as a string borrowed
    /// from the arena — the wire counterpart of
    /// [`crate::bridge::args::string`].
    ///
    /// # Errors
    ///
    /// Returns a bridge-coded error naming the position on a missing or
    /// non-string argument.
    pub fn str_arg(&self, index: usize) -> Result<&'a str, BridgeError> {
        self.item(index)
            .and_then(|v| v.as_str())
            .ok_or_else(|| BridgeError::bridge(format!("argument {index} must be a string")))
    }

    /// The `index`-th item of an argument array as a boolean, or
    /// `default` when it is absent or not a boolean.
    pub fn bool_arg_or(&self, index: usize, default: bool) -> bool {
        self.item(index)
            .and_then(|v| v.as_bool())
            .unwrap_or(default)
    }

    /// Decodes this view back into an owned [`JsValue`] tree.
    ///
    /// This allocates by design — it is the compatibility path for
    /// interfaces that only understand owned values.
    pub fn to_js(&self) -> JsValue {
        match self.node() {
            Node::Undefined => JsValue::Undefined,
            Node::Null => JsValue::Null,
            Node::Bool(b) => JsValue::Bool(b),
            Node::Number(n) => JsValue::Number(n),
            Node::Str { start, len } => JsValue::Str(self.buf.span_str(start, len).to_owned()),
            Node::Array { kids_len, .. } => JsValue::Array(
                (0..kids_len as usize)
                    .map(|i| {
                        self.item(i)
                            .map(|v| v.to_js())
                            .unwrap_or(JsValue::Undefined)
                    })
                    .collect(),
            ),
            Node::Object { kids_len, .. } => JsValue::Object(
                (0..kids_len as usize)
                    .filter_map(|i| self.entry(i).map(|(k, v)| (k.to_owned(), v.to_js())))
                    .collect(),
            ),
        }
    }

    /// Decodes an argument array into owned values, for the
    /// compatibility fallback of `call_wire`.
    pub fn to_js_args(&self) -> Result<Vec<JsValue>, BridgeError> {
        match self.node() {
            Node::Array { kids_len, .. } => Ok((0..kids_len as usize)
                .filter_map(|i| self.item(i).map(|v| v.to_js()))
                .collect()),
            _ => Err(BridgeError::bridge(
                "wire call arguments must be an array node",
            )),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalars_round_trip() {
        let mut buf = WireBuf::new();
        for value in [
            JsValue::Undefined,
            JsValue::Null,
            JsValue::Bool(true),
            JsValue::Number(-12.5),
            JsValue::str(""),
            JsValue::str("hello"),
        ] {
            let id = buf.push_js(&value);
            assert_eq!(buf.view(id).to_js(), value);
        }
    }

    #[test]
    fn nested_containers_round_trip() {
        let value = JsValue::object(vec![
            ("empty", JsValue::object(vec![])),
            (
                "inner",
                JsValue::Array(vec![
                    JsValue::Number(1.0),
                    JsValue::object(vec![("deep", JsValue::str("yes"))]),
                    JsValue::Null,
                ]),
            ),
            ("tail", JsValue::str("after")),
        ]);
        let mut buf = WireBuf::new();
        let id = buf.push_js(&value);
        assert_eq!(buf.view(id).to_js(), value);
    }

    #[test]
    fn view_accessors_borrow_without_cloning() {
        let mut buf = WireBuf::new();
        let mark = buf.begin();
        let lat = buf.push_number(47.6);
        buf.stage_entry("latitude", lat);
        let name = buf.push_str("fix");
        buf.stage_entry("name", name);
        let id = buf.end_object(mark);

        let view = buf.view(id);
        assert_eq!(view.len(), 2);
        assert_eq!(view.get("latitude").and_then(|v| v.as_number()), Some(47.6));
        assert_eq!(view.get("name").and_then(|v| v.as_str()), Some("fix"));
        assert!(view.get("missing").is_none());
        assert_eq!(view.entry(1).map(|(k, _)| k), Some("name"));
        assert_eq!(view.type_of(), "object");
    }

    #[test]
    fn clear_retains_capacity() {
        let mut buf = WireBuf::new();
        let value = JsValue::Array(vec![JsValue::str("warm"), JsValue::Number(1.0)]);
        buf.push_js(&value);
        let bytes_cap = buf.bytes.capacity();
        let nodes_cap = buf.nodes.capacity();
        buf.clear();
        assert_eq!(buf.nodes.len(), 0);
        assert_eq!(buf.bytes.capacity(), bytes_cap);
        assert_eq!(buf.nodes.capacity(), nodes_cap);
    }

    #[test]
    fn arg_helpers_read_argument_arrays() {
        let mut buf = WireBuf::new();
        let args = JsValue::Array(vec![JsValue::Number(2.0), JsValue::str("hi")]);
        let id = buf.push_js(&args);
        let view = buf.view(id);
        assert_eq!(view.number_arg(0).unwrap(), 2.0);
        assert_eq!(view.str_arg(1).unwrap(), "hi");
        let err = view.number_arg(1).unwrap_err();
        assert_eq!(err.message, "argument 1 must be a number");
        assert!(view.str_arg(5).is_err());
        assert!(view.bool_arg_or(5, true));
        assert!(!view.bool_arg_or(0, false));
    }

    #[test]
    fn nan_numbers_survive_the_wire() {
        let mut buf = WireBuf::new();
        let id = buf.push_js(&JsValue::Number(f64::NAN));
        match buf.view(id).to_js() {
            JsValue::Number(n) => assert!(n.is_nan()),
            other => panic!("expected a number, got {other:?}"),
        }
    }

    #[test]
    fn non_array_args_are_rejected() {
        let mut buf = WireBuf::new();
        let id = buf.push_number(1.0);
        let err = buf.view(id).to_js_args().unwrap_err();
        assert_eq!(err.code, crate::ErrorCode::Bridge);
    }

    /// Deterministic mirror of the workspace `properties.rs` round-trip
    /// property: a seeded splitmix64 generator builds hundreds of
    /// random nested values — NaN, empty strings, empty containers,
    /// deep mixes — and every one must survive `JsValue → WireBuf →
    /// WireValue → JsValue` through a single, repeatedly-cleared arena.
    #[test]
    fn random_js_values_round_trip_deterministically() {
        fn next(state: &mut u64) -> u64 {
            *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = *state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }

        fn gen_value(state: &mut u64, depth: u32) -> JsValue {
            let roll = if depth >= 3 {
                next(state) % 6
            } else {
                next(state) % 8
            };
            match roll {
                0 => JsValue::Undefined,
                1 => JsValue::Null,
                2 => JsValue::Bool(next(state).is_multiple_of(2)),
                3 => match next(state) % 4 {
                    0 => JsValue::Number(f64::NAN),
                    1 => JsValue::Number(-0.0),
                    2 => JsValue::Number(f64::from_bits(next(state)) % 1e12),
                    _ => JsValue::Number(next(state) as f64 / 1e3),
                },
                4 | 5 => {
                    let len = (next(state) % 13) as usize;
                    JsValue::Str(
                        (0..len)
                            .map(|_| (b' ' + (next(state) % 95) as u8) as char)
                            .collect(),
                    )
                }
                6 => {
                    let len = (next(state) % 4) as usize;
                    JsValue::Array((0..len).map(|_| gen_value(state, depth + 1)).collect())
                }
                _ => {
                    let len = next(state) % 4;
                    JsValue::Object(
                        (0..len)
                            .map(|i| (format!("k{i}"), gen_value(state, depth + 1)))
                            .collect(),
                    )
                }
            }
        }

        fn wire_eq(a: &JsValue, b: &JsValue) -> bool {
            match (a, b) {
                (JsValue::Number(x), JsValue::Number(y)) => x == y || (x.is_nan() && y.is_nan()),
                (JsValue::Array(xs), JsValue::Array(ys)) => {
                    xs.len() == ys.len() && xs.iter().zip(ys).all(|(x, y)| wire_eq(x, y))
                }
                (JsValue::Object(xs), JsValue::Object(ys)) => {
                    xs.len() == ys.len()
                        && xs
                            .iter()
                            .zip(ys)
                            .all(|((ka, va), (kb, vb))| ka == kb && wire_eq(va, vb))
                }
                _ => a == b,
            }
        }

        let mut state = 0xC0FF_EE00_D15E_A5E5u64;
        let mut buf = WireBuf::new();
        for case in 0..512 {
            let value = gen_value(&mut state, 0);
            buf.clear();
            let node = buf.push_js(&value);
            let back = buf.view(node).to_js();
            assert!(wire_eq(&back, &value), "case {case}: {back:?} != {value:?}");
        }
    }
}
