//! Dynamically-typed JavaScript values.
//!
//! Everything that crosses the `addJavaScriptInterface` bridge is a
//! [`JsValue`]: JavaScript has no `double` vs `float` vs `long`, which is
//! precisely why the M-Proxy *syntactic plane* carries a separate
//! JavaScript binding (paper §3.1).

use std::collections::BTreeMap;
use std::fmt;

/// A JavaScript value.
#[derive(Debug, Clone, PartialEq, Default)]
pub enum JsValue {
    /// `undefined`.
    #[default]
    Undefined,
    /// `null`.
    Null,
    /// A boolean.
    Bool(bool),
    /// A number (always an IEEE double, as in JavaScript).
    Number(f64),
    /// A string.
    Str(String),
    /// An array.
    Array(Vec<JsValue>),
    /// An object (string-keyed).
    Object(BTreeMap<String, JsValue>),
}

impl JsValue {
    /// Builds a string value.
    pub fn str(s: &str) -> Self {
        JsValue::Str(s.to_owned())
    }

    /// Builds an object from key/value pairs.
    pub fn object<I>(pairs: I) -> Self
    where
        I: IntoIterator<Item = (&'static str, JsValue)>,
    {
        JsValue::Object(pairs.into_iter().map(|(k, v)| (k.to_owned(), v)).collect())
    }

    /// Whether the value is `undefined` or `null`.
    pub fn is_nullish(&self) -> bool {
        matches!(self, JsValue::Undefined | JsValue::Null)
    }

    /// The value as a number, if it is one.
    pub fn as_number(&self) -> Option<f64> {
        match self {
            JsValue::Number(n) => Some(*n),
            _ => None,
        }
    }

    /// The value as a boolean, if it is one.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            JsValue::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The value as a string slice, if it is one.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsValue::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Object property lookup (`value.key`); `undefined` for
    /// non-objects or missing keys, as in JavaScript.
    pub fn get(&self, key: &str) -> JsValue {
        match self {
            JsValue::Object(map) => map.get(key).cloned().unwrap_or(JsValue::Undefined),
            _ => JsValue::Undefined,
        }
    }

    /// Borrowed object property lookup: `None` for non-objects or
    /// missing keys. Unlike [`JsValue::get`] this never clones the
    /// value — hot callers use it to read fields without allocating.
    pub fn get_ref(&self, key: &str) -> Option<&JsValue> {
        match self {
            JsValue::Object(map) => map.get(key),
            _ => None,
        }
    }

    /// Borrowed iteration over an object's entries in key order; empty
    /// for non-objects.
    pub fn entries(&self) -> impl Iterator<Item = (&str, &JsValue)> {
        match self {
            JsValue::Object(map) => Some(map.iter().map(|(k, v)| (k.as_str(), v))),
            _ => None,
        }
        .into_iter()
        .flatten()
    }

    /// JavaScript truthiness.
    pub fn is_truthy(&self) -> bool {
        match self {
            JsValue::Undefined | JsValue::Null => false,
            JsValue::Bool(b) => *b,
            JsValue::Number(n) => *n != 0.0 && !n.is_nan(),
            JsValue::Str(s) => !s.is_empty(),
            JsValue::Array(_) | JsValue::Object(_) => true,
        }
    }

    /// The `typeof` string.
    pub fn type_of(&self) -> &'static str {
        match self {
            JsValue::Undefined => "undefined",
            JsValue::Null | JsValue::Array(_) | JsValue::Object(_) => "object",
            JsValue::Bool(_) => "boolean",
            JsValue::Number(_) => "number",
            JsValue::Str(_) => "string",
        }
    }
}

impl fmt::Display for JsValue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            JsValue::Undefined => write!(f, "undefined"),
            JsValue::Null => write!(f, "null"),
            JsValue::Bool(b) => write!(f, "{b}"),
            JsValue::Number(n) => write!(f, "{n}"),
            JsValue::Str(s) => write!(f, "{s}"),
            JsValue::Array(items) => {
                write!(f, "[")?;
                for (i, v) in items.iter().enumerate() {
                    if i > 0 {
                        write!(f, ",")?;
                    }
                    write!(f, "{v}")?;
                }
                write!(f, "]")
            }
            JsValue::Object(map) => {
                write!(f, "{{")?;
                for (i, (k, v)) in map.iter().enumerate() {
                    if i > 0 {
                        write!(f, ",")?;
                    }
                    write!(f, "{k}:{v}")?;
                }
                write!(f, "}}")
            }
        }
    }
}

impl From<bool> for JsValue {
    fn from(b: bool) -> Self {
        JsValue::Bool(b)
    }
}

impl From<f64> for JsValue {
    fn from(n: f64) -> Self {
        JsValue::Number(n)
    }
}

impl From<i32> for JsValue {
    fn from(n: i32) -> Self {
        JsValue::Number(n as f64)
    }
}

impl From<u64> for JsValue {
    fn from(n: u64) -> Self {
        JsValue::Number(n as f64)
    }
}

impl From<&str> for JsValue {
    fn from(s: &str) -> Self {
        JsValue::Str(s.to_owned())
    }
}

impl From<String> for JsValue {
    fn from(s: String) -> Self {
        JsValue::Str(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accessors_match_types() {
        assert_eq!(JsValue::Number(4.5).as_number(), Some(4.5));
        assert_eq!(JsValue::Bool(true).as_bool(), Some(true));
        assert_eq!(JsValue::str("x").as_str(), Some("x"));
        assert_eq!(JsValue::Number(1.0).as_str(), None);
        assert_eq!(JsValue::str("1").as_number(), None);
    }

    #[test]
    fn object_get_behaves_like_javascript() {
        let obj = JsValue::object([("lat", JsValue::Number(28.5))]);
        assert_eq!(obj.get("lat"), JsValue::Number(28.5));
        assert_eq!(obj.get("missing"), JsValue::Undefined);
        assert_eq!(JsValue::Number(1.0).get("x"), JsValue::Undefined);
    }

    #[test]
    fn get_ref_borrows_without_cloning() {
        let obj = JsValue::object([
            ("lat", JsValue::Number(28.5)),
            ("name", JsValue::str("fix")),
        ]);
        assert_eq!(obj.get_ref("lat").and_then(JsValue::as_number), Some(28.5));
        assert!(obj.get_ref("missing").is_none());
        assert!(JsValue::Number(1.0).get_ref("x").is_none());
        let keys: Vec<&str> = obj.entries().map(|(k, _)| k).collect();
        assert_eq!(keys, ["lat", "name"]);
        assert_eq!(JsValue::Null.entries().count(), 0);
    }

    #[test]
    fn truthiness_table() {
        assert!(!JsValue::Undefined.is_truthy());
        assert!(!JsValue::Null.is_truthy());
        assert!(!JsValue::Bool(false).is_truthy());
        assert!(!JsValue::Number(0.0).is_truthy());
        assert!(!JsValue::Number(f64::NAN).is_truthy());
        assert!(!JsValue::str("").is_truthy());
        assert!(JsValue::Number(-1.0).is_truthy());
        assert!(JsValue::str("0").is_truthy());
        assert!(JsValue::Array(vec![]).is_truthy());
        assert!(JsValue::Object(Default::default()).is_truthy());
    }

    #[test]
    fn typeof_matches_javascript() {
        assert_eq!(JsValue::Undefined.type_of(), "undefined");
        assert_eq!(JsValue::Null.type_of(), "object");
        assert_eq!(JsValue::Array(vec![]).type_of(), "object");
        assert_eq!(JsValue::Number(1.0).type_of(), "number");
    }

    #[test]
    fn from_impls() {
        assert_eq!(JsValue::from(3), JsValue::Number(3.0));
        assert_eq!(JsValue::from("a"), JsValue::str("a"));
        assert_eq!(JsValue::from(true), JsValue::Bool(true));
    }

    #[test]
    fn display_renders_compound_values() {
        let v = JsValue::object([
            ("a", JsValue::Array(vec![1.into(), 2.into()])),
            ("b", JsValue::Null),
        ]);
        assert_eq!(v.to_string(), "{a:[1,2],b:null}");
    }

    #[test]
    fn is_nullish() {
        assert!(JsValue::Undefined.is_nullish());
        assert!(JsValue::Null.is_nullish());
        assert!(!JsValue::Bool(false).is_nullish());
    }
}
