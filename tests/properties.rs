//! Property-based tests (proptest) over the core data structures and
//! invariants of the reproduction.

use proptest::prelude::*;

use mobivine_device::geo::GeoPoint;
use mobivine_device::sms::{segment_message, SmsEncoding};
use mobivine_proxydl::xml::{escape, unescape, XmlNode};
use mobivine_proxydl::{
    MethodSpec, PlatformBinding, PlatformId, PropertySpec, ProxyDescriptor, SemanticPlane,
};
use mobivine_webview::{JsValue, WireBuf};

fn arb_latitude() -> impl Strategy<Value = f64> {
    -85.0..85.0f64
}

/// Arbitrary XML trees: names from a safe alphabet, attribute values and
/// text with entity-needing characters, bounded depth and fanout.
/// Text is only attached to leaves because the renderer emits
/// mixed-content text on its own line, which the parser then trims.
fn arb_xml_node() -> impl Strategy<Value = mobivine_proxydl::xml::XmlNode> {
    use mobivine_proxydl::xml::XmlNode;
    let name = "[a-zA-Z][a-zA-Z0-9_-]{0,8}";
    let value = "[ -~&&[^\\\\]]{0,20}"; // printable ascii
    let leaf = (name, proptest::collection::vec((name, value), 0..3), value).prop_map(
        |(name, attrs, text)| {
            let mut node = XmlNode::new(&name).text(text.trim());
            for (k, v) in attrs {
                node = node.attr(&k, &v);
            }
            node
        },
    );
    leaf.prop_recursive(3, 24, 4, move |inner| {
        (
            name,
            proptest::collection::vec((name, value), 0..3),
            proptest::collection::vec(inner, 0..4),
        )
            .prop_map(|(name, attrs, children)| {
                let mut node = XmlNode::new(&name);
                for (k, v) in attrs {
                    node = node.attr(&k, &v);
                }
                for child in children {
                    node = node.child(child);
                }
                node
            })
    })
}

fn arb_longitude() -> impl Strategy<Value = f64> {
    -179.0..179.0f64
}

/// Arbitrary JavaScript values: every scalar shape (NaN included, via
/// the unconstrained `f64`), empty strings, and nested arrays/objects
/// of bounded depth — the full domain the WebView wire arena must
/// carry without loss.
fn arb_js_value() -> impl Strategy<Value = JsValue> {
    let leaf = (0u8..5, any::<f64>(), "[ -~]{0,12}").prop_map(|(tag, n, s)| match tag {
        0 => JsValue::Undefined,
        1 => JsValue::Null,
        2 => JsValue::Bool(n.to_bits() & 1 == 1),
        3 => JsValue::Number(n),
        _ => JsValue::Str(s),
    });
    leaf.prop_recursive(3, 32, 4, |inner| {
        (
            any::<bool>(),
            proptest::collection::vec(inner.clone(), 0..4),
            proptest::collection::vec(("[a-z]{1,6}", inner), 0..4),
        )
            .prop_map(|(as_object, items, entries)| {
                if as_object {
                    JsValue::Object(entries.into_iter().collect())
                } else {
                    JsValue::Array(items)
                }
            })
    })
}

/// Structural equality that treats NaN as equal to itself — the wire
/// arena round-trips the bit pattern, but `f64::eq` would reject it.
fn js_eq(a: &JsValue, b: &JsValue) -> bool {
    match (a, b) {
        (JsValue::Number(x), JsValue::Number(y)) => x == y || (x.is_nan() && y.is_nan()),
        (JsValue::Array(xs), JsValue::Array(ys)) => {
            xs.len() == ys.len() && xs.iter().zip(ys).all(|(x, y)| js_eq(x, y))
        }
        (JsValue::Object(xs), JsValue::Object(ys)) => {
            xs.len() == ys.len()
                && xs
                    .iter()
                    .zip(ys)
                    .all(|((ka, va), (kb, vb))| ka == kb && js_eq(va, vb))
        }
        _ => a == b,
    }
}

proptest! {
    // ---- Geodesic invariants -------------------------------------

    #[test]
    fn distance_is_symmetric(
        lat1 in arb_latitude(), lon1 in arb_longitude(),
        lat2 in arb_latitude(), lon2 in arb_longitude(),
    ) {
        let a = GeoPoint::new(lat1, lon1);
        let b = GeoPoint::new(lat2, lon2);
        let d1 = a.distance_m(&b);
        let d2 = b.distance_m(&a);
        prop_assert!((d1 - d2).abs() < 1e-6);
        prop_assert!(d1 >= 0.0);
    }

    #[test]
    fn distance_to_self_is_zero(lat in arb_latitude(), lon in arb_longitude()) {
        let p = GeoPoint::new(lat, lon);
        prop_assert!(p.distance_m(&p) < 1e-6);
    }

    #[test]
    fn destination_travels_the_requested_distance(
        lat in arb_latitude(), lon in arb_longitude(),
        bearing in 0.0..360.0f64,
        distance in 1.0..100_000.0f64,
    ) {
        let start = GeoPoint::new(lat, lon);
        let end = start.destination(bearing, distance);
        prop_assert!(end.is_valid(), "{end:?}");
        let measured = start.distance_m(&end);
        // Spherical round-off tolerance: 0.1% or 0.5 m.
        let tolerance = (distance * 0.001).max(0.5);
        prop_assert!((measured - distance).abs() < tolerance,
            "asked {distance}, measured {measured}");
    }

    #[test]
    fn destination_bearing_round_trip(
        lat in -60.0..60.0f64, lon in arb_longitude(),
        bearing in 0.0..360.0f64,
        distance in 100.0..50_000.0f64,
    ) {
        let start = GeoPoint::new(lat, lon);
        let end = start.destination(bearing, distance);
        let measured_bearing = start.bearing_deg(&end);
        let diff = (measured_bearing - bearing).abs();
        let wrapped = diff.min(360.0 - diff);
        prop_assert!(wrapped < 0.5, "asked {bearing}, measured {measured_bearing}");
    }

    #[test]
    fn triangle_inequality_holds(
        lat1 in arb_latitude(), lon1 in arb_longitude(),
        lat2 in arb_latitude(), lon2 in arb_longitude(),
        lat3 in arb_latitude(), lon3 in arb_longitude(),
    ) {
        let a = GeoPoint::new(lat1, lon1);
        let b = GeoPoint::new(lat2, lon2);
        let c = GeoPoint::new(lat3, lon3);
        // Great-circle distances satisfy the triangle inequality up to
        // floating error.
        prop_assert!(a.distance_m(&c) <= a.distance_m(&b) + b.distance_m(&c) + 1e-3);
    }

    // ---- GSM segmentation ----------------------------------------

    #[test]
    fn segments_reassemble_to_original(body in ".{0,500}") {
        let segments = segment_message(&body);
        prop_assert_eq!(segments.parts.concat(), body);
    }

    #[test]
    fn ascii_bodies_use_gsm7_within_limits(body in "[a-zA-Z0-9 .,!?-]{1,400}") {
        let segments = segment_message(&body);
        prop_assert_eq!(segments.encoding, SmsEncoding::Gsm7);
        let n_chars = body.chars().count();
        if n_chars <= 160 {
            prop_assert_eq!(segments.count(), 1);
        } else {
            prop_assert_eq!(segments.count(), n_chars.div_ceil(153));
            for part in &segments.parts {
                prop_assert!(part.chars().count() <= 153);
            }
        }
    }

    #[test]
    fn segment_count_is_monotone_in_length(len_a in 0usize..400, len_b in 0usize..400) {
        let a = segment_message(&"x".repeat(len_a));
        let b = segment_message(&"x".repeat(len_b));
        if len_a <= len_b {
            prop_assert!(a.count() <= b.count());
        }
    }

    // ---- XML round trips -----------------------------------------

    #[test]
    fn escape_unescape_round_trips(s in ".{0,200}") {
        prop_assert_eq!(unescape(&escape(&s)).unwrap(), s);
    }

    #[test]
    fn xml_text_content_round_trips(text in "[^\u{0}-\u{8}\u{b}\u{c}\u{e}-\u{1f}]{0,100}") {
        let node = XmlNode::new("t").text(text.trim());
        let parsed = XmlNode::parse(&node.render()).unwrap();
        prop_assert_eq!(parsed.text, text.trim());
    }

    #[test]
    fn xml_attribute_values_round_trip(value in "[^\u{0}-\u{1f}]{0,80}") {
        let node = XmlNode::new("t").attr("v", &value);
        let parsed = XmlNode::parse(&node.render()).unwrap();
        prop_assert_eq!(parsed.attribute("v"), Some(value.as_str()));
    }

    // ---- Arbitrary XML trees -------------------------------------

    #[test]
    fn arbitrary_xml_trees_round_trip(root in arb_xml_node()) {
        let text = root.render();
        let parsed = XmlNode::parse(&text).unwrap();
        prop_assert_eq!(parsed, root);
    }

    // ---- Proxy descriptors ---------------------------------------

    #[test]
    fn generated_descriptors_round_trip_through_xml(
        n_methods in 1usize..5,
        n_params in 0usize..6,
        n_props in 0usize..4,
    ) {
        let mut semantic = SemanticPlane::new("Gen");
        for m in 0..n_methods {
            let mut method = MethodSpec::new(&format!("method{m}"));
            for p in 0..n_params {
                method = method.param(&format!("param{p}"), &format!("meaning {p}"));
            }
            semantic = semantic.method(method);
        }
        let mut binding = PlatformBinding::new(PlatformId::Android, "GenImpl");
        for p in 0..n_props {
            binding = binding.property(
                PropertySpec::new(&format!("prop{p}"), "string", "generated")
                    .default_value("v"),
            );
        }
        let descriptor = ProxyDescriptor::new("Gen", "Generated", semantic)
            .syntax(mobivine_proxydl::SyntacticBinding::new(
                mobivine_proxydl::Language::Java,
            ))
            .binding(binding);
        let text = descriptor.to_xml().render();
        let back = ProxyDescriptor::parse(&text).unwrap();
        prop_assert_eq!(back, descriptor);
    }

    // ---- Packaging round trips -----------------------------------

    #[test]
    fn jar_wire_format_round_trips(
        entries in proptest::collection::vec(
            ("[a-z]{1,12}(/[a-zA-Z0-9_.]{1,16}){0,3}", proptest::collection::vec(any::<u8>(), 0..200)),
            0..10,
        ),
    ) {
        use mobivine_s60::packaging::Jar;
        let mut jar = Jar::new("gen.jar");
        for (path, content) in &entries {
            // Duplicate paths with different content conflict; skip
            // re-adds so the property focuses on the wire format.
            if !jar.contains(path) {
                jar.add_entry(path, content.clone()).unwrap();
            }
        }
        let back = Jar::from_bytes(&jar.to_bytes()).unwrap();
        prop_assert_eq!(back, jar);
    }

    #[test]
    fn jad_render_parse_round_trips(
        name in "[A-Za-z][A-Za-z0-9 ]{0,20}",
        vendor in "[A-Za-z][A-Za-z0-9]{0,12}",
        major in 0u8..10, minor in 0u8..10,
        size in 0usize..1_000_000,
    ) {
        use mobivine_s60::packaging::{Jar, JadDescriptor};
        let jar = Jar::new("x.jar");
        let mut jad = JadDescriptor::for_jar(&jar, name.trim(), &vendor, &format!("{major}.{minor}"));
        jad.jar_size = size;
        jad.permissions = vec!["javax.microedition.location.Location".to_owned()];
        let back = JadDescriptor::parse(&jad.render()).unwrap();
        prop_assert_eq!(back, jad);
    }

    // ---- Movement models -----------------------------------------

    #[test]
    fn waypoint_position_never_overshoots_route(
        distance_m in 100.0..5_000.0f64,
        speed in 1.0..30.0f64,
        t_ms in 0u64..1_000_000,
    ) {
        use mobivine_device::movement::MovementModel;
        let start = GeoPoint::new(28.5, 77.3);
        let end = start.destination(90.0, distance_m);
        let mut model = MovementModel::waypoints(vec![start, end], speed);
        let position = model.position_at(t_ms, start);
        // The walker is always between start and end (within route
        // length + small slack from the spherical interpolation).
        prop_assert!(start.distance_m(&position) <= distance_m + 1.0);
        prop_assert!(end.distance_m(&position) <= distance_m + 1.0);
    }

    // ---- Property bag --------------------------------------------

    #[test]
    fn property_bag_accepts_exactly_the_allowed_values(
        allowed in proptest::collection::vec("[a-z]{1,8}", 1..5),
        candidate in "[a-z]{1,8}",
    ) {
        use mobivine::property::{PropertyBag, PropertyValue};
        let allowed_refs: Vec<&str> = allowed.iter().map(String::as_str).collect();
        let bag = PropertyBag::new(
            PlatformBinding::new(PlatformId::Android, "X").property(
                PropertySpec::new("p", "string", "").allowed(&allowed_refs),
            ),
        );
        let result = bag.set("p", PropertyValue::str(&candidate));
        prop_assert_eq!(result.is_ok(), allowed.contains(&candidate));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    // ---- Event queue ordering ------------------------------------

    #[test]
    fn events_always_fire_in_timestamp_order(times in proptest::collection::vec(0u64..10_000, 1..40)) {
        use mobivine_device::event::EventQueue;
        use std::sync::{Arc, Mutex};
        let queue = EventQueue::new();
        let fired = Arc::new(Mutex::new(Vec::new()));
        for t in &times {
            let sink = Arc::clone(&fired);
            queue.schedule_at(*t, "prop", move |at| sink.lock().unwrap().push(at));
        }
        queue.run_until(10_000);
        let fired = fired.lock().unwrap();
        prop_assert_eq!(fired.len(), times.len());
        prop_assert!(fired.windows(2).all(|w| w[0] <= w[1]));
    }

    // ---- Proximity geometry --------------------------------------

    #[test]
    fn proximity_fires_iff_route_enters_radius(
        offset_m in 0.0..1_000.0f64,
        radius_m in 50.0..400.0f64,
    ) {
        use mobivine::api::LocationProxy;
        use mobivine::registry::Mobivine;
        use mobivine_android::{AndroidPlatform, SdkVersion};
        use mobivine_device::movement::MovementModel;
        use mobivine_device::Device;
        use std::sync::{Arc, Mutex};

        // The agent walks east along a line offset `offset_m` north of
        // the region center; it passes within the radius iff
        // offset < radius.
        let center = GeoPoint::new(28.5355, 77.3910);
        let start = center.destination(0.0, offset_m).destination(270.0, 1_000.0);
        let device = Device::builder()
            .position(start)
            .movement(MovementModel::linear(start, 90.0, 20.0))
            .build();
        device.gps().set_noise_enabled(false);
        let platform = AndroidPlatform::new(device.clone(), SdkVersion::M5Rc15);
        let runtime = Mobivine::for_android(platform.new_context());
        let fired = Arc::new(Mutex::new(false));
        let sink = Arc::clone(&fired);
        runtime
            .proxy::<dyn LocationProxy>()
            .unwrap()
            .add_proximity_alert(
                center.latitude,
                center.longitude,
                0.0,
                radius_m,
                -1,
                Arc::new(move |e: &mobivine::types::ProximityEvent| {
                    if e.entering {
                        *sink.lock().unwrap() = true;
                    }
                }),
            )
            .unwrap();
        device.advance_ms(120_000);
        let fired = *fired.lock().unwrap();
        // Exclude the knife-edge where the closest approach is within
        // one 1-second check step (20 m) of the radius.
        if (offset_m - radius_m).abs() > 25.0 {
            prop_assert_eq!(fired, offset_m < radius_m,
                "offset {}, radius {}", offset_m, radius_m);
        }
    }
}

proptest! {
    // ---- Telemetry label canonicalisation ------------------------

    /// `Labels::new` canonicalises: keys come out strictly sorted and,
    /// when the input repeats a key, the *last* value wins. Building a
    /// label set from its own canonical pairs is a fixpoint. (The
    /// deterministic mirror of this property lives in the telemetry
    /// crate's `labels_invariant_randomized` unit test.)
    #[test]
    fn labels_are_sorted_and_last_duplicate_wins(
        pairs in proptest::collection::vec(("[a-c]{1,2}", "[a-z]{0,4}"), 0..8)
    ) {
        use mobivine_telemetry::Labels;
        let refs: Vec<(&str, &str)> =
            pairs.iter().map(|(k, v)| (k.as_str(), v.as_str())).collect();
        let labels = Labels::new(&refs);
        let keys: Vec<&str> = labels.pairs().iter().map(|(k, _)| k.as_str()).collect();
        prop_assert!(
            keys.windows(2).all(|w| w[0] < w[1]),
            "keys not strictly sorted: {:?}", keys
        );
        for (key, value) in labels.pairs() {
            let expected = refs
                .iter()
                .rev()
                .find(|(k, _)| k == key)
                .map(|(_, v)| *v)
                .expect("every output key appeared in the input");
            prop_assert_eq!(value.as_str(), expected, "later duplicate must win");
        }
        prop_assert_eq!(labels.pairs().len(), keys.len());
        let canonical: Vec<(&str, &str)> = labels
            .pairs()
            .iter()
            .map(|(k, v)| (k.as_str(), v.as_str()))
            .collect();
        prop_assert_eq!(&Labels::new(&canonical), &labels, "canonical form is a fixpoint");
    }

    /// The sharded registry's exporters are insertion-order (and
    /// shard-layout) independent: registering the same series in any
    /// permutation renders byte-identical Prometheus text.
    #[test]
    fn prometheus_export_is_insertion_order_independent(
        order in proptest::collection::vec(0usize..12, 12..13)
    ) {
        use mobivine_telemetry::{Labels, MetricsRegistry};
        let mut order = order;
        let series: Vec<Labels> = (0..12)
            .map(|i| Labels::call("Location", &format!("method{i:02}"), "android"))
            .collect();

        let sorted = MetricsRegistry::new();
        for labels in &series {
            sorted.counter("proxy_calls_total", labels).inc();
        }

        let shuffled = MetricsRegistry::new();
        order.extend(0..12); // ensure every series is registered
        for &i in &order {
            shuffled.counter("proxy_calls_total", &series[i]).inc();
        }
        // Equalise the counts so only ordering is under test.
        for labels in &series {
            let want = shuffled.counter_value("proxy_calls_total", labels);
            sorted.counter("proxy_calls_total", labels).add(want - 1);
        }
        prop_assert_eq!(sorted.render_prometheus(), shuffled.render_prometheus());
    }
}

proptest! {
    // ---- WebView wire arena --------------------------------------

    /// Every JavaScript value survives `JsValue → WireBuf → WireValue →
    /// JsValue` unchanged, and a cleared (capacity-retaining) arena
    /// encodes it identically — the invariant behind reusing one
    /// scratch buffer pair per bridge handle. (The deterministic mirror
    /// lives in the wire module's `random_js_values_round_trip_deterministically`.)
    #[test]
    fn js_values_round_trip_through_the_wire_arena(value in arb_js_value()) {
        let mut buf = WireBuf::new();
        let node = buf.push_js(&value);
        prop_assert!(js_eq(&buf.view(node).to_js(), &value));
        buf.clear();
        let node = buf.push_js(&value);
        prop_assert!(js_eq(&buf.view(node).to_js(), &value));
    }
}

proptest! {
    // ---- Write-ahead journal -------------------------------------

    /// Recovery is idempotent on a clean journal: scanning the durable
    /// image twice returns identical record sequences, and every
    /// fsynced payload comes back byte-identical in append order. (The
    /// deterministic mirror lives in `tests/journal_recovery.rs`,
    /// which actually executes under the offline proptest stub.)
    #[test]
    fn journal_recovery_is_idempotent(
        payloads in proptest::collection::vec(
            proptest::collection::vec(any::<u8>(), 0..64),
            1..20,
        ),
    ) {
        use mobivine::{Journal, JournalMetrics, JournalPolicy, Lsn};
        let mut journal = Journal::new(&JournalPolicy::default(), JournalMetrics::shared());
        for payload in &payloads {
            journal.append(payload);
            journal.fsync();
        }
        let first = journal.recover(Lsn(0));
        let second = journal.recover(Lsn(0));
        prop_assert_eq!(&first, &second, "a clean scan must be repeatable");
        prop_assert_eq!(first.records.len(), payloads.len());
        for (record, payload) in first.records.iter().zip(&payloads) {
            prop_assert_eq!(&record.payload, payload);
        }
    }

    /// Whatever prefix of a mid-write frame reaches the disk queue
    /// before the crash, recovery surfaces exactly the fsynced records:
    /// a partial tail is truncated (and flagged torn), a complete tail
    /// frame commits, and nothing in between ever leaks. A second scan
    /// after the truncation reproduces the first byte-for-byte.
    #[test]
    fn torn_tails_never_surface_uncommitted_records(
        committed in proptest::collection::vec(
            proptest::collection::vec(any::<u8>(), 0..48),
            0..12,
        ),
        tail in proptest::collection::vec(any::<u8>(), 0..48),
        torn_keep in any::<usize>(),
    ) {
        use mobivine::{Journal, JournalMetrics, JournalPolicy, Lsn};
        let mut journal = Journal::new(&JournalPolicy::default(), JournalMetrics::shared());
        for payload in &committed {
            journal.append(payload);
        }
        journal.fsync();
        journal.append(&tail);
        let frame_len = journal.volatile_len();
        let keep = torn_keep % (frame_len + 1);
        journal.crash(Some(keep));
        let recovery = journal.recover(Lsn(0));
        let tail_committed = keep == frame_len;
        prop_assert_eq!(
            recovery.records.len(),
            committed.len() + usize::from(tail_committed),
        );
        for (record, payload) in recovery.records.iter().zip(&committed) {
            prop_assert_eq!(&record.payload, payload);
        }
        if tail_committed {
            prop_assert_eq!(&recovery.records[committed.len()].payload, &tail);
        }
        prop_assert_eq!(
            recovery.torn_records,
            u64::from(keep > 0 && !tail_committed),
            "a partial frame is torn, an empty or complete one is not"
        );
        let again = journal.recover(Lsn(0));
        prop_assert_eq!(again.records, recovery.records);
        prop_assert_eq!(again.torn_records, 0, "the tail was already truncated");
    }

    /// A crash-stormed durable server converges to the same state as a
    /// crash-free one fed the identical request stream: wipe +
    /// checkpoint + replay must be invisible in the state digest, and
    /// every effect lands exactly once no matter which crash kind hits
    /// which key.
    #[test]
    fn crash_recovery_converges_to_the_crash_free_digest(
        seed in any::<u64>(),
        ops in 1u64..24,
        crash_at in 0u64..24,
        kind_tag in 0u8..3,
    ) {
        use mobivine::IdempotencyKey;
        use mobivine_apps::server::{DurabilityConfig, WfmServer};
        use mobivine_device::fault::{CrashKind, CrashSchedule};
        use mobivine_device::net::HttpRequest;
        use mobivine_device::Device;
        use std::sync::Arc;

        let kind = match kind_tag {
            0 => CrashKind::TornWrite,
            1 => CrashKind::BeforeEffect,
            _ => CrashKind::AfterEffect,
        };
        let crash_key = IdempotencyKey::derive(seed, 1, 1, crash_at % ops);
        let schedule = CrashSchedule::new([(crash_key.0, kind)]);
        schedule.arm();

        let drive = |crash: Option<Arc<CrashSchedule>>| -> (Device, WfmServer) {
            let device = Device::builder().build();
            let server = WfmServer::durable(DurabilityConfig {
                checkpoint_every: 1,
                crash,
                ..Default::default()
            });
            server.install(device.network(), "wfm.example");
            for op in 0..ops {
                let key = IdempotencyKey::derive(seed, 1, 1, op);
                let body = format!(
                    "{{\"agent_id\":1,\"latitude\":28.5,\"longitude\":77.{op},\"at_ms\":{}}}",
                    1_000 + op,
                );
                let url = format!(
                    "http://wfm.example/report-location?idem={}",
                    key.to_hex()
                );
                let post = || {
                    let req = HttpRequest::post(&url, body.clone().into_bytes()).unwrap();
                    device.network().execute(&req).unwrap().0.status
                };
                if post() == 503 {
                    assert_eq!(post(), 200, "the retry after a crash commits");
                }
            }
            (device, server)
        };
        let (_stormed_device, stormed) = drive(Some(Arc::clone(&schedule)));
        let (_clean_device, clean) = drive(None);
        prop_assert_eq!(stormed.state_digest(), clean.state_digest());
        prop_assert_eq!(stormed.counts().tracks, ops);
        let ledger = stormed.recovery_snapshot().expect("durable server");
        prop_assert_eq!(ledger.duplicates(), 0, "exactly-once under the crash");
        prop_assert_eq!(ledger.recoveries, 1);
    }
}

proptest! {
    // ---- Overload admission invariants ---------------------------

    /// However acquire/release interleave, the bulkhead never lets more
    /// than `cap` permits exist at once, and `in_flight` always equals
    /// the number of live permits.
    #[test]
    fn bulkhead_in_flight_never_exceeds_cap(
        cap in 1u32..6,
        ops in proptest::collection::vec(any::<bool>(), 0..48),
    ) {
        use mobivine::overload::Bulkhead;
        let bulkhead = Bulkhead::new(cap);
        let mut permits = Vec::new();
        for acquire in ops {
            if acquire {
                match bulkhead.try_acquire() {
                    Some(permit) => permits.push(permit),
                    None => prop_assert_eq!(
                        bulkhead.in_flight(), cap,
                        "a refusal means the bulkhead is exactly full"
                    ),
                }
            } else {
                permits.pop();
            }
            prop_assert!(bulkhead.in_flight() <= cap);
            prop_assert_eq!(bulkhead.in_flight() as usize, permits.len());
        }
        drop(permits);
        prop_assert_eq!(bulkhead.in_flight(), 0, "all permits returned");
    }

    /// Two controllers on the same seed fed the same observation/admit
    /// interleaving make identical shed decisions — decision streams
    /// are a pure function of (seed, history).
    #[test]
    fn admission_decisions_replay_per_seed(
        seed in any::<u64>(),
        history in proptest::collection::vec((0u64..500, 1u64..300), 1..60),
    ) {
        use mobivine::overload::AdmissionController;
        let a = AdmissionController::new(seed);
        let b = AdmissionController::new(seed);
        for (sojourn, target) in &history {
            a.observe(*sojourn, *target);
            b.observe(*sojourn, *target);
            prop_assert_eq!(a.admit(), b.admit());
            prop_assert_eq!(a.rate(), b.rate());
            prop_assert_eq!(a.tier(), b.tier());
        }
        // Reseeding restores the full-open gate and resynchronises the
        // decision streams no matter how they diverged before.
        a.reseed(seed ^ 1);
        b.reseed(seed ^ 1);
        for _ in 0..16 {
            prop_assert_eq!(a.admit(), b.admit());
        }
    }

    /// AIMD converges: sustained over-target sojourns drive the rate
    /// monotonically down to a positive floor (never a full outage),
    /// and sustained under-target sojourns recover it monotonically
    /// back to fully open, where every call is admitted again.
    #[test]
    fn aimd_converges_to_the_floor_and_recovers(
        seed in any::<u64>(),
        target in 1u64..100,
        pressure in 1usize..200,
    ) {
        use mobivine::overload::AdmissionController;
        let gate = AdmissionController::new(seed);
        let open_rate = gate.rate();
        prop_assert!(gate.admit(), "a fresh gate is fully open");

        let mut floor = open_rate;
        for _ in 0..pressure {
            let before = gate.rate();
            gate.observe(target + 1, target);
            prop_assert!(gate.rate() <= before, "decrease is monotone");
            floor = gate.rate();
        }
        prop_assert!(floor > 0, "the gate never closes completely");
        // The floor is stable: more pressure cannot push below it.
        for _ in 0..50 {
            gate.observe(target.saturating_mul(10), target);
        }
        prop_assert!(gate.rate() >= floor.min(gate.rate()) && gate.rate() > 0);

        // Recovery: additive increase climbs back to fully open.
        let mut last = gate.rate();
        for _ in 0..200 {
            gate.observe(0, target);
            prop_assert!(gate.rate() >= last, "increase is monotone");
            last = gate.rate();
        }
        prop_assert_eq!(last, open_rate, "converged back to fully open");
        for _ in 0..16 {
            prop_assert!(gate.admit(), "fully open admits everything");
        }
    }
}
