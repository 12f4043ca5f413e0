//! Thread-safety: the proxies are `Send + Sync` and usable from
//! multiple OS threads against one device world, as the guide's
//! C-SEND-SYNC item demands.

use std::sync::Arc;
use std::thread;

use mobivine::api::{HttpProxy, LocationProxy, SmsProxy};
use mobivine::registry::Mobivine;
use mobivine_android::{AndroidPlatform, SdkVersion};
use mobivine_device::net::{HttpResponse, Method};
use mobivine_device::{Device, GeoPoint};

#[test]
fn proxy_handles_are_send_and_sync() {
    fn assert_send_sync<T: Send + Sync + ?Sized>() {}
    assert_send_sync::<dyn LocationProxy>();
    assert_send_sync::<dyn SmsProxy>();
    assert_send_sync::<dyn HttpProxy>();
    assert_send_sync::<Device>();
    assert_send_sync::<Mobivine>();
}

#[test]
fn parallel_proxy_calls_from_many_threads() {
    let device = Device::builder()
        .msisdn("+agent")
        .position(GeoPoint::new(28.5355, 77.3910))
        .build();
    device.smsc().register_address("+hub");
    device
        .network()
        .register_route("wfm.example", Method::Get, "/ping", |_| {
            HttpResponse::ok("pong")
        });
    let platform = AndroidPlatform::new(device.clone(), SdkVersion::M5Rc15);
    let runtime = Arc::new(Mobivine::for_android(platform.new_context()));

    let location = runtime.proxy::<dyn LocationProxy>().unwrap();
    let sms = runtime.proxy::<dyn SmsProxy>().unwrap();
    let http = runtime.proxy::<dyn HttpProxy>().unwrap();

    let mut handles = Vec::new();
    for worker in 0..8u32 {
        let location = Arc::clone(&location);
        let sms = Arc::clone(&sms);
        let http = Arc::clone(&http);
        handles.push(thread::spawn(move || {
            for i in 0..25 {
                location.get_location().expect("location from thread");
                sms.send_text_message("+hub", &format!("w{worker}-{i}"), None)
                    .expect("sms from thread");
                let resp = http
                    .request("GET", "http://wfm.example/ping", &[])
                    .expect("http from thread");
                assert_eq!(resp.body_text(), "pong");
            }
        }));
    }
    for handle in handles {
        handle.join().expect("worker thread panicked");
    }
    device.advance_ms(10_000);
    assert_eq!(device.smsc().inbox_len("+hub"), 8 * 25);
}

#[test]
fn clock_advance_races_with_proxy_calls() {
    // One thread pumps virtual time while others invoke proxies; no
    // deadlocks, no lost events.
    let device = Device::builder().msisdn("+agent").build();
    device.smsc().register_address("+hub");
    let platform = AndroidPlatform::new(device.clone(), SdkVersion::M5Rc15);
    let runtime = Mobivine::for_android(platform.new_context());
    let sms = runtime.proxy::<dyn SmsProxy>().unwrap();

    let pump_device = device.clone();
    let pump = thread::spawn(move || {
        for _ in 0..100 {
            pump_device.advance_ms(100);
        }
    });
    let sender = thread::spawn(move || {
        for i in 0..50 {
            sms.send_text_message("+hub", &format!("race-{i}"), None)
                .expect("send during pumping");
        }
    });
    pump.join().unwrap();
    sender.join().unwrap();
    device.advance_ms(5_000);
    assert_eq!(device.smsc().inbox_len("+hub"), 50);
}
