//! The generic `setProperty` mechanism.
//!
//! "Any platform-mandated information should not form part of a common
//! API, but should still be provided to the implementation module for
//! that platform. In M-Proxies, this is enabled through a generic
//! `setProperty()` method." (paper §4.1) A [`PropertyBag`] validates
//! every set against the proxy's binding-plane descriptor: unknown keys
//! are rejected, constrained values are checked against the allowed set,
//! and defaults declared by the descriptor fill in automatically.

use std::any::Any;
use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;

use parking_lot::RwLock;

use mobivine_proxydl::{PlatformBinding, PlatformId};

use crate::error::{ProxyError, ProxyErrorKind};

/// A value assignable to a proxy property.
#[derive(Clone)]
pub enum PropertyValue {
    /// A string value (checked against the descriptor's allowed set).
    Str(String),
    /// An integer value.
    Int(i64),
    /// A boolean value.
    Bool(bool),
    /// An opaque platform object — how the Android proxies receive the
    /// application `context` (`loc.setProperty("context", this)` in
    /// Fig. 8(a)).
    Opaque(Arc<dyn Any + Send + Sync>),
}

impl PropertyValue {
    /// Builds a string value.
    pub fn str(value: &str) -> Self {
        PropertyValue::Str(value.to_owned())
    }

    /// Wraps a platform object.
    pub fn opaque<T: Any + Send + Sync>(value: T) -> Self {
        PropertyValue::Opaque(Arc::new(value))
    }

    /// The value as a string slice, if it is one.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            PropertyValue::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as a boolean, if it is one.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            PropertyValue::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// Downcasts an opaque platform object.
    pub fn downcast<T: Any + Send + Sync>(&self) -> Option<Arc<T>> {
        match self {
            PropertyValue::Opaque(any) => Arc::clone(any).downcast::<T>().ok(),
            _ => None,
        }
    }

    /// The value rendered as a string for constraint checking.
    fn constraint_repr(&self) -> Option<String> {
        match self {
            PropertyValue::Str(s) => Some(s.clone()),
            PropertyValue::Int(i) => Some(i.to_string()),
            PropertyValue::Bool(b) => Some(b.to_string()),
            PropertyValue::Opaque(_) => None,
        }
    }
}

impl fmt::Debug for PropertyValue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PropertyValue::Str(s) => write!(f, "Str({s:?})"),
            PropertyValue::Int(i) => write!(f, "Int({i})"),
            PropertyValue::Bool(b) => write!(f, "Bool({b})"),
            PropertyValue::Opaque(_) => write!(f, "Opaque(..)"),
        }
    }
}

/// A descriptor-validated property store, one per proxy instance. The
/// binding plane it validates against is shared: every proxy of one
/// kind on one platform points at the same catalog entry.
pub struct PropertyBag {
    binding: Arc<PlatformBinding>,
    values: RwLock<HashMap<String, PropertyValue>>,
}

impl fmt::Debug for PropertyBag {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("PropertyBag")
            .field("platform", &self.binding.platform.id())
            .field("set", &self.values.read().len())
            .finish()
    }
}

impl PropertyBag {
    /// Creates a bag validating against `binding` (the proxy's
    /// binding-plane descriptor for the running platform).
    pub fn new(binding: impl Into<Arc<PlatformBinding>>) -> Self {
        Self {
            binding: binding.into(),
            values: RwLock::new(HashMap::new()),
        }
    }

    /// A bag validating against the standard catalog's `interface`
    /// binding on `platform`, shared with every other proxy of that kind
    /// (see [`mobivine_proxydl::catalog::standard_binding`]).
    ///
    /// # Panics
    ///
    /// If the standard catalog declares no such binding: a binding
    /// constructor naming the wrong interface is a programming error.
    pub(crate) fn standard(interface: &str, platform: &PlatformId) -> Self {
        Self::new(
            mobivine_proxydl::catalog::standard_binding(interface, platform).unwrap_or_else(|| {
                panic!("the standard catalog declares no {interface} binding on {platform}")
            }),
        )
    }

    /// The binding plane this bag validates against.
    pub fn binding(&self) -> &Arc<PlatformBinding> {
        &self.binding
    }

    /// `setProperty(key, value)`.
    ///
    /// # Errors
    ///
    /// - [`ProxyErrorKind::UnknownProperty`] if the binding plane does
    ///   not declare `key`.
    /// - [`ProxyErrorKind::BadPropertyValue`] if `value` violates the
    ///   property's allowed-values constraint.
    pub fn set(&self, key: &str, value: PropertyValue) -> Result<(), ProxyError> {
        let spec = self.binding.find_property(key).ok_or_else(|| {
            ProxyError::new(
                ProxyErrorKind::UnknownProperty,
                format!(
                    "property '{key}' is not declared by the {} binding plane",
                    self.binding.platform.id()
                ),
            )
        })?;
        if let Some(repr) = value.constraint_repr() {
            if !spec.accepts(&repr) {
                return Err(ProxyError::new(
                    ProxyErrorKind::BadPropertyValue,
                    format!(
                        "value '{repr}' not allowed for property '{key}' (allowed: {})",
                        spec.allowed_values.join(", ")
                    ),
                ));
            }
        }
        self.values.write().insert(key.to_owned(), value);
        Ok(())
    }

    /// Reads a property: an explicitly set value, else the descriptor's
    /// declared default (as a string value), else `None`.
    pub fn get(&self, key: &str) -> Option<PropertyValue> {
        if let Some(v) = self.values.read().get(key) {
            return Some(v.clone());
        }
        self.binding
            .find_property(key)
            .and_then(|spec| spec.default_value.as_ref())
            .map(|d| PropertyValue::Str(d.clone()))
    }

    /// Reads a string property by reference, without cloning: `f`
    /// receives the set value (or the descriptor default) borrowed in
    /// place. The hot-path variant of [`PropertyBag::get_str`] — a
    /// traced call that consults a property each invocation must not
    /// pay a heap allocation for it. `f` runs under the bag's read
    /// lock when the value was explicitly set, so it must not call
    /// back into this bag.
    ///
    /// Non-string set values (int/bool) fall back to [`None`]; use
    /// [`PropertyBag::get_str`] when those spellings matter.
    pub fn with_str<T>(&self, key: &str, f: impl FnOnce(Option<&str>) -> T) -> T {
        let values = self.values.read();
        if let Some(PropertyValue::Str(s)) = values.get(key) {
            return f(Some(s.as_str()));
        }
        let set_non_string = values.get(key).is_some();
        drop(values);
        if set_non_string {
            return f(None);
        }
        f(self
            .binding
            .find_property(key)
            .and_then(|spec| spec.default_value.as_deref()))
    }

    /// Reads a string property (set value or descriptor default).
    pub fn get_str(&self, key: &str) -> Option<String> {
        self.get(key).and_then(|v| match v {
            PropertyValue::Str(s) => Some(s),
            PropertyValue::Int(i) => Some(i.to_string()),
            PropertyValue::Bool(b) => Some(b.to_string()),
            PropertyValue::Opaque(_) => None,
        })
    }

    /// Reads an integer property, parsing string defaults. Never
    /// allocates: set values are read under the lock and descriptor
    /// defaults are parsed from the borrowed spec string (hot-path
    /// criteria assembly calls this per traced invocation).
    pub fn get_int(&self, key: &str) -> Option<i64> {
        {
            let values = self.values.read();
            match values.get(key) {
                Some(PropertyValue::Int(i)) => return Some(*i),
                Some(PropertyValue::Str(s)) => return s.parse().ok(),
                Some(_) => return None,
                None => {}
            }
        }
        self.binding
            .find_property(key)
            .and_then(|spec| spec.default_value.as_deref())
            .and_then(|d| d.parse().ok())
    }

    /// Fetches a required opaque platform object.
    ///
    /// # Errors
    ///
    /// - [`ProxyErrorKind::MissingProperty`] if never set.
    /// - [`ProxyErrorKind::BadPropertyValue`] if set to the wrong type.
    pub fn require_opaque<T: Any + Send + Sync>(&self, key: &str) -> Result<Arc<T>, ProxyError> {
        let value = self.values.read().get(key).cloned().ok_or_else(|| {
            ProxyError::new(
                ProxyErrorKind::MissingProperty,
                format!("required property '{key}' was not set"),
            )
        })?;
        value.downcast::<T>().ok_or_else(|| {
            ProxyError::new(
                ProxyErrorKind::BadPropertyValue,
                format!("property '{key}' holds a value of the wrong type"),
            )
        })
    }

    /// Checks that every property marked required in the descriptor has
    /// been set.
    ///
    /// # Errors
    ///
    /// Returns [`ProxyErrorKind::MissingProperty`] naming the first
    /// missing one.
    pub fn check_required(&self) -> Result<(), ProxyError> {
        let values = self.values.read();
        for spec in &self.binding.properties {
            if spec.required && !values.contains_key(&spec.name) {
                return Err(ProxyError::new(
                    ProxyErrorKind::MissingProperty,
                    format!("required property '{}' was not set", spec.name),
                ));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mobivine_proxydl::PropertySpec;

    fn bag() -> PropertyBag {
        PropertyBag::new(
            PlatformBinding::new(PlatformId::NokiaS60, "Impl")
                .property(
                    PropertySpec::new("powerConsumption", "string", "")
                        .default_value("NoRequirement")
                        .allowed(&["NoRequirement", "Low", "Medium", "High"]),
                )
                .property(PropertySpec::new("preferredResponseTime", "int", "").default_value("-1"))
                .property(PropertySpec::new("context", "object", "").required()),
        )
    }

    #[test]
    fn set_and_get() {
        let bag = bag();
        bag.set("powerConsumption", PropertyValue::str("Low"))
            .unwrap();
        assert_eq!(bag.get_str("powerConsumption").as_deref(), Some("Low"));
    }

    #[test]
    fn defaults_come_from_descriptor() {
        let bag = bag();
        assert_eq!(
            bag.get_str("powerConsumption").as_deref(),
            Some("NoRequirement")
        );
        assert_eq!(bag.get_int("preferredResponseTime"), Some(-1));
        assert!(bag.get("undeclared").is_none());
    }

    #[test]
    fn unknown_key_rejected() {
        let err = bag().set("bogus", PropertyValue::str("x")).unwrap_err();
        assert_eq!(err.kind(), ProxyErrorKind::UnknownProperty);
    }

    #[test]
    fn constrained_value_rejected() {
        let err = bag()
            .set("powerConsumption", PropertyValue::str("Turbo"))
            .unwrap_err();
        assert_eq!(err.kind(), ProxyErrorKind::BadPropertyValue);
        assert!(err.message().contains("Low"));
    }

    #[test]
    fn int_values_pass_unconstrained_properties() {
        let bag = bag();
        bag.set("preferredResponseTime", PropertyValue::Int(5000))
            .unwrap();
        assert_eq!(bag.get_int("preferredResponseTime"), Some(5000));
    }

    #[test]
    fn opaque_objects_store_and_downcast() {
        #[derive(Debug, PartialEq)]
        struct FakeContext(u32);
        let bag = bag();
        bag.set("context", PropertyValue::opaque(FakeContext(7)))
            .unwrap();
        let ctx: Arc<FakeContext> = bag.require_opaque("context").unwrap();
        assert_eq!(*ctx, FakeContext(7));
    }

    #[test]
    fn require_opaque_errors() {
        let bag = bag();
        let missing = bag.require_opaque::<String>("context").unwrap_err();
        assert_eq!(missing.kind(), ProxyErrorKind::MissingProperty);
        bag.set("context", PropertyValue::opaque(42u32)).unwrap();
        let wrong = bag.require_opaque::<String>("context").unwrap_err();
        assert_eq!(wrong.kind(), ProxyErrorKind::BadPropertyValue);
    }

    #[test]
    fn check_required_flags_missing_context() {
        let bag = bag();
        let err = bag.check_required().unwrap_err();
        assert_eq!(err.kind(), ProxyErrorKind::MissingProperty);
        assert!(err.message().contains("context"));
        bag.set("context", PropertyValue::opaque(1u8)).unwrap();
        bag.check_required().unwrap();
    }
}
