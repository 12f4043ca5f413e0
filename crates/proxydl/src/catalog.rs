//! The standard proxy catalog.
//!
//! Descriptors for the proxies the paper implements (§4.1): Location,
//! SMS, Call and Http on Android and Android WebView; Location, SMS and
//! Http on Nokia S60 ("Call proxy could not be created in this case
//! because the core functionality was not exposed on the S60 platform").
//! Two more descriptors — Contacts and Calendar — cover the paper's
//! future-work interfaces (§7), which this reproduction implements as
//! extension features.

use std::sync::{Arc, OnceLock};

use crate::binding::{PlatformBinding, PlatformId, PropertySpec};
use crate::descriptor::ProxyDescriptor;
use crate::semantic::{MethodSpec, SemanticPlane};
use crate::syntactic::{Language, MethodTypes, SyntacticBinding};

const ANDROID_LOCATION_EXCEPTIONS: &[&str] = &[
    "java.lang.SecurityException",
    "java.lang.IllegalArgumentException",
    "android.os.RemoteException",
];

const S60_LOCATION_EXCEPTIONS: &[&str] = &[
    "javax.microedition.location.LocationException",
    "java.lang.SecurityException",
    "java.lang.IllegalArgumentException",
    "java.lang.NullPointerException",
];

fn android_common_properties() -> Vec<PropertySpec> {
    vec![PropertySpec::new("context", "object", "Android application context").required()]
}

fn s60_common_properties() -> Vec<PropertySpec> {
    vec![
        PropertySpec::new(
            "preferredResponseTime",
            "int",
            "Preferred max. response time required internally for polling of updates",
        )
        .default_value("-1"),
        PropertySpec::new("powerConsumption", "string", "Positioning power budget")
            .default_value("NoRequirement")
            .allowed(&["NoRequirement", "Low", "Medium", "High"]),
    ]
}

fn with_properties(mut binding: PlatformBinding, properties: Vec<PropertySpec>) -> PlatformBinding {
    for p in properties {
        binding = binding.property(p);
    }
    binding
}

fn with_exceptions(mut binding: PlatformBinding, exceptions: &[&str]) -> PlatformBinding {
    for e in exceptions {
        binding = binding.exception(e);
    }
    binding
}

/// The Location proxy descriptor — `addProximityAlert` is the paper's
/// running example (§3.1 listings are reproduced in the planes here).
pub fn location() -> ProxyDescriptor {
    let semantic = SemanticPlane::new("Location")
        .method(
            MethodSpec::new("addProximityAlert")
                .param("latitude", "region center latitude, degrees")
                .param("longitude", "region center longitude, degrees")
                .param("altitude", "region center altitude, metres")
                .param("radius", "region radius, metres")
                .param("timer", "registration lifetime, seconds (-1 = unlimited)")
                .param("proximityListener", "callback receiving enter/exit alerts"),
        )
        .method(MethodSpec::new("getLocation").returns("location"))
        .method(MethodSpec::new("getLocationWithPower").returns("locationWithPower"))
        .method(
            MethodSpec::new("removeProximityAlert")
                .param("proximityListener", "the callback registered earlier"),
        );

    let java = SyntacticBinding::new(Language::Java)
        .method(
            MethodTypes::new("addProximityAlert")
                .param("double")
                .param("double")
                .param("double")
                .param("float")
                .param("long")
                .param("com.ibm.telecom.proxy.ProximityListener")
                .callback("com.ibm.telecom.proxy.ProximityListener", "proximityEvent"),
        )
        .method(MethodTypes::new("getLocation").returns("com.ibm.telecom.proxy.Location"))
        .method(
            MethodTypes::new("getLocationWithPower")
                .returns("com.ibm.telecom.proxy.LocationWithPower"),
        )
        .method(
            MethodTypes::new("removeProximityAlert")
                .param("com.ibm.telecom.proxy.ProximityListener"),
        );

    let javascript = SyntacticBinding::new(Language::JavaScript)
        .method(
            MethodTypes::new("addProximityAlert")
                .param("number")
                .param("number")
                .param("number")
                .param("number")
                .param("number")
                .param("function")
                .callback("function", ""),
        )
        .method(MethodTypes::new("getLocation").returns("object"))
        .method(MethodTypes::new("getLocationWithPower").returns("object"))
        .method(MethodTypes::new("removeProximityAlert").param("function"));

    let android = with_exceptions(
        with_properties(
            PlatformBinding::new(
                PlatformId::Android,
                "com.ibm.proxies.android.location.LocationProxyImpl",
            ),
            android_common_properties(),
        ),
        ANDROID_LOCATION_EXCEPTIONS,
    )
    .property(
        PropertySpec::new("provider", "string", "location provider to use")
            .default_value("gps")
            .allowed(&["gps", "network"]),
    );

    let s60 = with_exceptions(
        with_properties(
            PlatformBinding::new(PlatformId::NokiaS60, "com.ibm.S60.location.LocationProxy"),
            s60_common_properties(),
        ),
        S60_LOCATION_EXCEPTIONS,
    )
    .property(
        PropertySpec::new(
            "verticalAccuracy",
            "int",
            "requested vertical accuracy, metres",
        )
        .default_value("50"),
    );

    let webview = PlatformBinding::new(
        PlatformId::AndroidWebView,
        "js/proxies/LocationProxyImpl.js",
    )
    .property(
        PropertySpec::new("provider", "string", "location provider to use")
            .default_value("gps")
            .allowed(&["gps", "network"]),
    )
    .property(
        PropertySpec::new("pollInterval", "int", "notification poll period, ms")
            .default_value("200"),
    );

    ProxyDescriptor::new("Location", "Telecom", semantic)
        .syntax(java)
        .syntax(javascript)
        .binding(android)
        .binding(s60)
        .binding(webview)
}

/// The SMS proxy descriptor.
pub fn sms() -> ProxyDescriptor {
    let semantic = SemanticPlane::new("SMS").method(
        MethodSpec::new("sendTextMessage")
            .param("destination", "recipient address")
            .param("text", "message body")
            .param("deliveryListener", "callback receiving the delivery report")
            .returns("messageId"),
    );
    let java = SyntacticBinding::new(Language::Java).method(
        MethodTypes::new("sendTextMessage")
            .param("java.lang.String")
            .param("java.lang.String")
            .param("com.ibm.telecom.proxy.DeliveryListener")
            .returns("long")
            .callback("com.ibm.telecom.proxy.DeliveryListener", "deliveryEvent"),
    );
    let javascript = SyntacticBinding::new(Language::JavaScript).method(
        MethodTypes::new("sendTextMessage")
            .param("string")
            .param("string")
            .param("function")
            .returns("number")
            .callback("function", ""),
    );
    let android = with_exceptions(
        with_properties(
            PlatformBinding::new(
                PlatformId::Android,
                "com.ibm.proxies.android.sms.SmsProxyImpl",
            ),
            android_common_properties(),
        ),
        &[
            "java.lang.SecurityException",
            "java.lang.IllegalArgumentException",
        ],
    );
    let s60 = with_exceptions(
        PlatformBinding::new(PlatformId::NokiaS60, "com.ibm.S60.sms.SmsProxy"),
        &[
            "java.lang.SecurityException",
            "java.lang.IllegalArgumentException",
            "java.io.IOException",
        ],
    );
    let webview = PlatformBinding::new(PlatformId::AndroidWebView, "js/proxies/SmsProxyImpl.js")
        .property(
            PropertySpec::new("pollInterval", "int", "notification poll period, ms")
                .default_value("200"),
        );
    ProxyDescriptor::new("SMS", "Telecom", semantic)
        .syntax(java)
        .syntax(javascript)
        .binding(android)
        .binding(s60)
        .binding(webview)
}

/// The Call proxy descriptor — no S60 binding, per §4.1.
pub fn call() -> ProxyDescriptor {
    let semantic = SemanticPlane::new("Call")
        .method(
            MethodSpec::new("makeACall")
                .param("number", "callee address")
                .returns("callId"),
        )
        .method(
            MethodSpec::new("callProgress")
                .param("callId", "the call to query")
                .returns("callProgress"),
        )
        .method(MethodSpec::new("endCall").param("callId", "the call to terminate"));
    let java = SyntacticBinding::new(Language::Java)
        .method(
            MethodTypes::new("makeACall")
                .param("java.lang.String")
                .returns("long"),
        )
        .method(
            MethodTypes::new("callProgress")
                .param("long")
                .returns("com.ibm.telecom.proxy.CallProgress"),
        )
        .method(MethodTypes::new("endCall").param("long"));
    let javascript = SyntacticBinding::new(Language::JavaScript)
        .method(
            MethodTypes::new("makeACall")
                .param("string")
                .returns("number"),
        )
        .method(
            MethodTypes::new("callProgress")
                .param("number")
                .returns("string"),
        )
        .method(MethodTypes::new("endCall").param("number"));
    let android = with_exceptions(
        with_properties(
            PlatformBinding::new(
                PlatformId::Android,
                "com.ibm.proxies.android.call.CallProxyImpl",
            ),
            android_common_properties(),
        ),
        &[
            "java.lang.SecurityException",
            "java.lang.IllegalArgumentException",
        ],
    )
    .property(
        PropertySpec::new(
            "retries",
            "int",
            "redial attempts when the callee is unreachable",
        )
        .default_value("0"),
    );
    let webview = PlatformBinding::new(PlatformId::AndroidWebView, "js/proxies/CallProxyImpl.js");
    ProxyDescriptor::new("Call", "Telecom", semantic)
        .syntax(java)
        .syntax(javascript)
        .binding(android)
        .binding(webview)
}

/// The Http proxy descriptor.
pub fn http() -> ProxyDescriptor {
    let semantic = SemanticPlane::new("Http").method(
        MethodSpec::new("request")
            .param("method", "HTTP method")
            .param("url", "target URL")
            .param("body", "request entity (may be empty)")
            .returns("httpResponse"),
    );
    let mut method_spec = semantic.methods[0].clone();
    method_spec.params[0].allowed_values = vec![
        "GET".into(),
        "POST".into(),
        "PUT".into(),
        "DELETE".into(),
        "HEAD".into(),
    ];
    let semantic = SemanticPlane {
        interface: semantic.interface,
        methods: vec![method_spec],
    };
    let java = SyntacticBinding::new(Language::Java).method(
        MethodTypes::new("request")
            .param("java.lang.String")
            .param("java.lang.String")
            .param("byte[]")
            .returns("com.ibm.telecom.proxy.HttpResponse"),
    );
    let javascript = SyntacticBinding::new(Language::JavaScript).method(
        MethodTypes::new("request")
            .param("string")
            .param("string")
            .param("string")
            .returns("object"),
    );
    let android = with_exceptions(
        with_properties(
            PlatformBinding::new(
                PlatformId::Android,
                "com.ibm.proxies.android.http.HttpProxyImpl",
            ),
            android_common_properties(),
        ),
        &["java.lang.SecurityException", "java.io.IOException"],
    );
    let s60 = with_exceptions(
        PlatformBinding::new(PlatformId::NokiaS60, "com.ibm.S60.http.HttpProxy"),
        &[
            "java.lang.SecurityException",
            "java.io.IOException",
            "java.lang.IllegalArgumentException",
        ],
    );
    let webview = PlatformBinding::new(PlatformId::AndroidWebView, "js/proxies/HttpProxyImpl.js");
    ProxyDescriptor::new("Http", "Connectivity", semantic)
        .syntax(java)
        .syntax(javascript)
        .binding(android)
        .binding(s60)
        .binding(webview)
}

/// The Contacts proxy descriptor (paper future work, §7).
pub fn contacts() -> ProxyDescriptor {
    let semantic = SemanticPlane::new("Contacts").method(
        MethodSpec::new("findContacts")
            .param("query", "case-insensitive name fragment")
            .returns("contactList"),
    );
    let java = SyntacticBinding::new(Language::Java).method(
        MethodTypes::new("findContacts")
            .param("java.lang.String")
            .returns("com.ibm.telecom.proxy.Contact[]"),
    );
    let javascript = SyntacticBinding::new(Language::JavaScript).method(
        MethodTypes::new("findContacts")
            .param("string")
            .returns("object"),
    );
    let android = with_properties(
        PlatformBinding::new(
            PlatformId::Android,
            "com.ibm.proxies.android.pim.ContactsProxyImpl",
        ),
        android_common_properties(),
    )
    .exception("java.lang.SecurityException");
    let s60 = PlatformBinding::new(PlatformId::NokiaS60, "com.ibm.S60.pim.ContactsProxy")
        .exception("java.lang.SecurityException");
    ProxyDescriptor::new("Contacts", "PIM", semantic)
        .syntax(java)
        .syntax(javascript)
        .binding(android)
        .binding(s60)
}

/// The Calendar proxy descriptor (paper future work, §7).
pub fn calendar() -> ProxyDescriptor {
    let semantic = SemanticPlane::new("Calendar").method(
        MethodSpec::new("entriesBetween")
            .param("from", "interval start, virtual ms")
            .param("to", "interval end, virtual ms")
            .returns("entryList"),
    );
    let java = SyntacticBinding::new(Language::Java).method(
        MethodTypes::new("entriesBetween")
            .param("long")
            .param("long")
            .returns("com.ibm.telecom.proxy.CalendarEntry[]"),
    );
    let javascript = SyntacticBinding::new(Language::JavaScript).method(
        MethodTypes::new("entriesBetween")
            .param("number")
            .param("number")
            .returns("object"),
    );
    let android = with_properties(
        PlatformBinding::new(
            PlatformId::Android,
            "com.ibm.proxies.android.pim.CalendarProxyImpl",
        ),
        android_common_properties(),
    )
    .exception("java.lang.SecurityException");
    let s60 = PlatformBinding::new(PlatformId::NokiaS60, "com.ibm.S60.pim.CalendarProxy")
        .exception("java.lang.SecurityException");
    ProxyDescriptor::new("Calendar", "PIM", semantic)
        .syntax(java)
        .syntax(javascript)
        .binding(android)
        .binding(s60)
}

/// The full standard catalog, in drawer order: a fresh owned copy,
/// for callers that extend or edit descriptors (the plug-in, new
/// platform bindings). Read-only callers share [`standard`].
pub fn standard_catalog() -> Vec<ProxyDescriptor> {
    vec![location(), sms(), call(), http(), contacts(), calendar()]
}

/// The standard catalog, built once per process and shared: descriptors
/// are static metadata (§3.3), so every runtime holds the same
/// allocation instead of a private copy.
pub fn standard() -> Arc<Vec<ProxyDescriptor>> {
    static STANDARD: OnceLock<Arc<Vec<ProxyDescriptor>>> = OnceLock::new();
    Arc::clone(STANDARD.get_or_init(|| Arc::new(standard_catalog())))
}

/// The binding plane of the standard `interface` (descriptor name, e.g.
/// `"Location"`) on `platform`, shared by every proxy of that kind in
/// the process; `None` where the catalog declares no such binding.
pub fn standard_binding(interface: &str, platform: &PlatformId) -> Option<Arc<PlatformBinding>> {
    static BINDINGS: OnceLock<Vec<(String, Arc<PlatformBinding>)>> = OnceLock::new();
    BINDINGS
        .get_or_init(|| {
            standard()
                .iter()
                .flat_map(|d| {
                    d.bindings
                        .iter()
                        .map(|b| (d.name.clone(), Arc::new(b.clone())))
                })
                .collect()
        })
        .iter()
        .find(|(name, binding)| name == interface && &binding.platform == platform)
        .map(|(_, binding)| Arc::clone(binding))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::validate_descriptor;

    #[test]
    fn every_catalog_descriptor_validates() {
        for descriptor in standard_catalog() {
            let errors = validate_descriptor(&descriptor);
            assert!(
                errors.is_empty(),
                "descriptor {} has schema errors: {errors:?}",
                descriptor.name
            );
        }
    }

    #[test]
    fn catalog_round_trips_through_xml() {
        for descriptor in standard_catalog() {
            let text = descriptor.to_xml().render();
            let back = ProxyDescriptor::parse(&text).unwrap();
            assert_eq!(back, descriptor, "descriptor {}", descriptor.name);
        }
    }

    #[test]
    fn the_shared_catalog_is_built_once_and_matches_the_builders() {
        let catalog = standard();
        assert!(Arc::ptr_eq(&catalog, &standard()));
        assert_eq!(*catalog, standard_catalog());
    }

    #[test]
    fn shared_bindings_match_the_catalog_and_are_built_once() {
        for descriptor in standard_catalog() {
            for binding in &descriptor.bindings {
                let shared = standard_binding(&descriptor.name, &binding.platform).unwrap();
                assert_eq!(*shared, *binding);
                let again = standard_binding(&descriptor.name, &binding.platform).unwrap();
                assert!(Arc::ptr_eq(&shared, &again));
            }
        }
        assert!(standard_binding("Call", &PlatformId::NokiaS60).is_none());
        assert!(standard_binding("Teleport", &PlatformId::Android).is_none());
    }

    #[test]
    fn s60_has_no_call_binding() {
        assert!(call().binding_for(&PlatformId::NokiaS60).is_none());
        assert!(call().binding_for(&PlatformId::Android).is_some());
        assert!(call().binding_for(&PlatformId::AndroidWebView).is_some());
    }

    #[test]
    fn paper_platform_coverage() {
        // §4.1: four proxies on Android and WebView, three on S60.
        let on = |p: &PlatformId| {
            standard_catalog()
                .iter()
                .filter(|d| ["Location", "SMS", "Call", "Http"].contains(&d.name.as_str()))
                .filter(|d| d.binding_for(p).is_some())
                .count()
        };
        assert_eq!(on(&PlatformId::Android), 4);
        assert_eq!(on(&PlatformId::AndroidWebView), 4);
        assert_eq!(on(&PlatformId::NokiaS60), 3);
    }

    #[test]
    fn proximity_alert_semantics_match_paper_listing() {
        let d = location();
        let m = d.semantic.find_method("addProximityAlert").unwrap();
        let names: Vec<&str> = m.params.iter().map(|p| p.name.as_str()).collect();
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
        let java = d.syntax_for(Language::Java).unwrap();
        let types = java.find_method("addProximityAlert").unwrap();
        assert_eq!(types.param_types[0], "double");
        assert_eq!(types.param_types[3], "float");
        assert_eq!(types.param_types[4], "long");
        assert_eq!(
            types.callback.as_ref().unwrap().type_name,
            "com.ibm.telecom.proxy.ProximityListener"
        );
    }

    #[test]
    fn s60_binding_carries_paper_properties() {
        let d = location();
        let b = d.binding_for(&PlatformId::NokiaS60).unwrap();
        assert!(b.find_property("preferredResponseTime").is_some());
        assert!(b.find_property("powerConsumption").is_some());
        assert!(b.find_property("verticalAccuracy").is_some());
        assert!(b
            .exceptions
            .contains(&"javax.microedition.location.LocationException".to_owned()));
    }

    #[test]
    fn android_binding_requires_context_property() {
        let d = location();
        let b = d.binding_for(&PlatformId::Android).unwrap();
        assert!(b.find_property("context").unwrap().required);
        assert!(b.find_property("provider").unwrap().accepts("network"));
    }
}
