//! The Proxy Configuration dialog (paper Fig. 7(b)).
//!
//! "While parameters of the common proxy interface are presented under
//! the Variables column, S60 platform specific Properties are presented
//! under the Properties column. Associated default value, allowed
//! values and description is also provided for each parameter and
//! property."

use std::fmt;

use mobivine_proxydl::{Language, PlatformId, ProxyDescriptor};

/// A common-interface parameter row (the *Variables* column).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VariableField {
    /// Parameter name from the semantic plane.
    pub name: String,
    /// Concrete type from the syntactic plane for the platform's
    /// language.
    pub type_name: String,
    /// Human description from the semantic plane.
    pub description: String,
    /// Allowed values (empty = unconstrained).
    pub allowed_values: Vec<String>,
    /// The user-entered value, if any.
    pub value: Option<String>,
}

/// A platform-specific property row (the *Properties* column).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PropertyField {
    /// Property key from the binding plane.
    pub name: String,
    /// Data type.
    pub type_name: String,
    /// Human description.
    pub description: String,
    /// Declared default.
    pub default_value: Option<String>,
    /// Allowed values (empty = unconstrained).
    pub allowed_values: Vec<String>,
    /// The user-entered value, if any (falls back to the default).
    pub value: Option<String>,
}

impl PropertyField {
    /// The value code generation will use: explicit, else default.
    pub fn effective_value(&self) -> Option<&str> {
        self.value.as_deref().or(self.default_value.as_deref())
    }
}

/// Errors raised while configuring a dialog.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DialogError {
    /// The descriptor has no such API.
    UnknownApi(String),
    /// The descriptor has no binding for the platform.
    UnsupportedPlatform(String),
    /// Set of a variable/property the dialog does not show.
    UnknownField(String),
    /// A value outside the field's allowed set.
    DisallowedValue {
        /// The field being set.
        field: String,
        /// The rejected value.
        value: String,
    },
    /// Code generation requested with unset variables.
    Incomplete {
        /// Variables still without values.
        missing: Vec<String>,
    },
}

impl fmt::Display for DialogError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DialogError::UnknownApi(a) => write!(f, "unknown api {a}"),
            DialogError::UnsupportedPlatform(p) => {
                write!(f, "proxy has no binding for platform {p}")
            }
            DialogError::UnknownField(n) => write!(f, "dialog has no field {n}"),
            DialogError::DisallowedValue { field, value } => {
                write!(f, "value '{value}' not allowed for {field}")
            }
            DialogError::Incomplete { missing } => {
                write!(f, "variables not set: {}", missing.join(", "))
            }
        }
    }
}

impl std::error::Error for DialogError {}

/// The configuration dialog for one (proxy, API, platform) triple.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConfigurationDialog {
    /// The proxy name.
    pub proxy: String,
    /// The API being configured.
    pub api: String,
    /// Target platform.
    pub platform: PlatformId,
    /// Language of the generated snippet.
    pub language: Language,
    /// Implementation module from the binding plane (drives the
    /// constructor name in generated code).
    pub implementation_class: String,
    /// The platform's exception set (rendered into the catch comment).
    pub exceptions: Vec<String>,
    /// Callback binding for this API, if any:
    /// `(type name, callback method)`.
    pub callback: Option<(String, String)>,
    variables: Vec<VariableField>,
    properties: Vec<PropertyField>,
}

impl ConfigurationDialog {
    /// Builds the dialog from a descriptor: variables from the
    /// semantic+syntactic planes, properties from the binding plane.
    ///
    /// # Errors
    ///
    /// [`DialogError::UnknownApi`] or
    /// [`DialogError::UnsupportedPlatform`].
    pub fn for_api(
        descriptor: &ProxyDescriptor,
        platform: PlatformId,
        api: &str,
    ) -> Result<Self, DialogError> {
        let method = descriptor
            .semantic
            .find_method(api)
            .ok_or_else(|| DialogError::UnknownApi(api.to_owned()))?;
        let binding = descriptor
            .binding_for(&platform)
            .ok_or_else(|| DialogError::UnsupportedPlatform(platform.id().to_owned()))?;
        let language = binding.language();
        let types = descriptor.syntax_for(language);
        let variables = method
            .params
            .iter()
            .enumerate()
            .map(|(i, p)| VariableField {
                name: p.name.clone(),
                type_name: types
                    .and_then(|t| t.find_method(api))
                    .and_then(|m| m.param_types.get(i).cloned())
                    .unwrap_or_else(|| "unknown".to_owned()),
                description: p.meaning.clone(),
                allowed_values: p.allowed_values.clone(),
                value: None,
            })
            .collect();
        let properties = binding
            .properties
            .iter()
            .map(|p| PropertyField {
                name: p.name.clone(),
                type_name: p.data_type.clone(),
                description: p.description.clone(),
                default_value: p.default_value.clone(),
                allowed_values: p.allowed_values.clone(),
                value: None,
            })
            .collect();
        let callback = types
            .and_then(|t| t.find_method(api))
            .and_then(|m| m.callback.as_ref())
            .map(|cb| (cb.type_name.clone(), cb.method.clone()));
        Ok(Self {
            proxy: descriptor.name.clone(),
            api: api.to_owned(),
            platform,
            language,
            implementation_class: binding.implementation_class.clone(),
            exceptions: binding.exceptions.clone(),
            callback,
            variables,
            properties,
        })
    }

    /// The Variables column.
    pub fn variables(&self) -> &[VariableField] {
        &self.variables
    }

    /// The Properties column.
    pub fn properties(&self) -> &[PropertyField] {
        &self.properties
    }

    /// Sets a variable value.
    ///
    /// # Errors
    ///
    /// [`DialogError::UnknownField`] or [`DialogError::DisallowedValue`].
    pub fn set_variable(&mut self, name: &str, value: &str) -> Result<(), DialogError> {
        let field = self
            .variables
            .iter_mut()
            .find(|v| v.name == name)
            .ok_or_else(|| DialogError::UnknownField(name.to_owned()))?;
        if !field.allowed_values.is_empty() && !field.allowed_values.iter().any(|a| a == value) {
            return Err(DialogError::DisallowedValue {
                field: name.to_owned(),
                value: value.to_owned(),
            });
        }
        field.value = Some(value.to_owned());
        Ok(())
    }

    /// Sets a property value.
    ///
    /// # Errors
    ///
    /// [`DialogError::UnknownField`] or [`DialogError::DisallowedValue`].
    pub fn set_property(&mut self, name: &str, value: &str) -> Result<(), DialogError> {
        let field = self
            .properties
            .iter_mut()
            .find(|p| p.name == name)
            .ok_or_else(|| DialogError::UnknownField(name.to_owned()))?;
        if !field.allowed_values.is_empty() && !field.allowed_values.iter().any(|a| a == value) {
            return Err(DialogError::DisallowedValue {
                field: name.to_owned(),
                value: value.to_owned(),
            });
        }
        field.value = Some(value.to_owned());
        Ok(())
    }

    /// Variables still missing values.
    pub fn missing_variables(&self) -> Vec<String> {
        self.variables
            .iter()
            .filter(|v| v.value.is_none())
            .map(|v| v.name.clone())
            .collect()
    }

    /// Whether every variable has a value (properties may rely on
    /// defaults).
    pub fn is_complete(&self) -> bool {
        self.missing_variables().is_empty()
    }

    /// The *Source* view: the generated code preview for the current
    /// configuration (paper Fig. 7(b), Source tab).
    ///
    /// # Errors
    ///
    /// [`DialogError::Incomplete`] when variables are unset.
    pub fn source_preview(&self) -> Result<String, DialogError> {
        if !self.is_complete() {
            return Err(DialogError::Incomplete {
                missing: self.missing_variables(),
            });
        }
        Ok(match self.language {
            Language::Java => crate::codegen::java::generate(self),
            Language::JavaScript => crate::codegen::javascript::generate(self),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mobivine_proxydl::catalog;

    fn s60_proximity_dialog() -> ConfigurationDialog {
        ConfigurationDialog::for_api(
            &catalog::location(),
            PlatformId::NokiaS60,
            "addProximityAlert",
        )
        .unwrap()
    }

    #[test]
    fn variables_from_semantic_types_from_syntactic() {
        let dialog = s60_proximity_dialog();
        let names: Vec<&str> = dialog.variables().iter().map(|v| v.name.as_str()).collect();
        assert_eq!(
            names,
            vec![
                "latitude",
                "longitude",
                "altitude",
                "radius",
                "timer",
                "proximityListener"
            ]
        );
        assert_eq!(dialog.variables()[0].type_name, "double");
        assert_eq!(dialog.variables()[3].type_name, "float");
        assert_eq!(dialog.language, Language::Java);
    }

    #[test]
    fn properties_from_binding_plane_with_defaults() {
        let dialog = s60_proximity_dialog();
        let power = dialog
            .properties()
            .iter()
            .find(|p| p.name == "powerConsumption")
            .unwrap();
        assert_eq!(power.default_value.as_deref(), Some("NoRequirement"));
        assert_eq!(power.allowed_values.len(), 4);
        assert_eq!(power.effective_value(), Some("NoRequirement"));
    }

    #[test]
    fn allowed_values_enforced() {
        let mut dialog = s60_proximity_dialog();
        assert!(dialog.set_property("powerConsumption", "Low").is_ok());
        assert!(matches!(
            dialog.set_property("powerConsumption", "Turbo"),
            Err(DialogError::DisallowedValue { .. })
        ));
        assert!(matches!(
            dialog.set_property("ghost", "x"),
            Err(DialogError::UnknownField(_))
        ));
    }

    #[test]
    fn completeness_tracking() {
        let mut dialog = s60_proximity_dialog();
        assert!(!dialog.is_complete());
        assert_eq!(dialog.missing_variables().len(), 6);
        for (name, value) in [
            ("latitude", "28.5355"),
            ("longitude", "77.3910"),
            ("altitude", "0"),
            ("radius", "100"),
            ("timer", "-1"),
            ("proximityListener", "this"),
        ] {
            dialog.set_variable(name, value).unwrap();
        }
        assert!(dialog.is_complete());
    }

    /// M-Plugin generates a call to every method the catalog describes,
    /// on every platform that binds it; the catalog in turn lists every
    /// method the runtime serves (a `mobivine` stack test).
    #[test]
    fn every_described_method_generates_a_call() {
        for descriptor in catalog::standard_catalog() {
            for binding in &descriptor.bindings {
                for method in &descriptor.semantic.methods {
                    let platform = binding.platform.clone();
                    let mut dialog =
                        ConfigurationDialog::for_api(&descriptor, platform, &method.name).unwrap();
                    let values: Vec<(String, String)> = (dialog.variables().iter())
                        .map(|v| {
                            let value = v.allowed_values.first().map_or("1", String::as_str);
                            (v.name.clone(), value.to_owned())
                        })
                        .collect();
                    for (name, value) in values {
                        dialog.set_variable(&name, &value).unwrap();
                    }
                    let source = dialog.source_preview().unwrap();
                    assert!(
                        source.contains(&format!(".{}(", method.name)),
                        "{}.{} on {:?}:\n{source}",
                        descriptor.name,
                        method.name,
                        binding.platform
                    );
                }
            }
        }
    }

    #[test]
    fn source_preview_requires_completeness() {
        let dialog = s60_proximity_dialog();
        assert!(matches!(
            dialog.source_preview(),
            Err(DialogError::Incomplete { .. })
        ));
    }

    #[test]
    fn unsupported_platform_and_api_rejected() {
        assert!(matches!(
            ConfigurationDialog::for_api(&catalog::call(), PlatformId::NokiaS60, "makeACall"),
            Err(DialogError::UnsupportedPlatform(_))
        ));
        assert!(matches!(
            ConfigurationDialog::for_api(&catalog::location(), PlatformId::Android, "fly"),
            Err(DialogError::UnknownApi(_))
        ));
    }

    #[test]
    fn webview_dialog_uses_javascript_types() {
        let dialog = ConfigurationDialog::for_api(
            &catalog::location(),
            PlatformId::AndroidWebView,
            "addProximityAlert",
        )
        .unwrap();
        assert_eq!(dialog.language, Language::JavaScript);
        assert_eq!(dialog.variables()[0].type_name, "number");
        assert_eq!(dialog.variables()[5].type_name, "function");
    }
}
