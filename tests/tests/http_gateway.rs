//! The browser path end-to-end: a raw HTTP client (standing in for the
//! iPhone's browser, Figure 9) drives an AlfredOShop session through the
//! servlet gateway.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::Arc;

use alfredo_apps::{register_shop, sample_catalog, SHOP_INTERFACE};
use alfredo_core::{AlfredOEngine, Device, EngineConfig, HttpGateway};
use alfredo_net::{InMemoryNetwork, PeerAddr};
use alfredo_osgi::Framework;
use alfredo_rosgi::DiscoveryDirectory;
use alfredo_ui::DeviceCapabilities;

fn http(addr: std::net::SocketAddr, request: &str) -> (u16, String) {
    let mut stream = TcpStream::connect(addr).unwrap();
    stream.write_all(request.as_bytes()).unwrap();
    let mut response = String::new();
    stream.read_to_string(&mut response).unwrap();
    let status: u16 = response
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(0);
    let body = response
        .split_once("\r\n\r\n")
        .map(|(_, b)| b.to_owned())
        .unwrap_or_default();
    (status, body)
}

fn get(addr: std::net::SocketAddr, path: &str) -> (u16, String) {
    http(
        addr,
        &format!("GET {path} HTTP/1.1\r\nHost: x\r\nConnection: close\r\n\r\n"),
    )
}

fn post_event(addr: std::net::SocketAddr, json: &str) -> (u16, String) {
    http(
        addr,
        &format!(
            "POST /event HTTP/1.1\r\nHost: x\r\nContent-Type: application/json\r\n\
             Content-Length: {}\r\nConnection: close\r\n\r\n{json}",
            json.len()
        ),
    )
}

#[test]
fn browser_drives_the_shop_through_the_gateway() {
    // Shop screen + iPhone-class phone (HTML renderer selected).
    let net = InMemoryNetwork::new();
    let screen_fw = Framework::new();
    register_shop(&screen_fw, sample_catalog()).unwrap();
    let _device = Device::new(screen_fw)
        .serve(&net, PeerAddr::new("http-shop"))
        .unwrap();
    let engine = AlfredOEngine::new(
        Framework::new(),
        net,
        DiscoveryDirectory::new(),
        EngineConfig::phone("iphone", DeviceCapabilities::iphone()),
    );
    let conn = engine.connect(&PeerAddr::new("http-shop")).unwrap();
    let session = Arc::new(conn.acquire(SHOP_INTERFACE).unwrap());
    let gateway = HttpGateway::serve(Arc::clone(&session), "127.0.0.1:0").unwrap();
    let addr = gateway.addr();

    // GET /: the AJAX-enabled page the HtmlRenderer produced.
    let (status, page) = get(addr, "/");
    assert_eq!(status, 200);
    assert!(page.starts_with("<!DOCTYPE html>"));
    assert!(page.contains("postEvent('refresh','click'"));

    // POST /event: click Refresh — the controller fills the categories.
    let (status, body) = post_event(addr, r#"{"control":"refresh","kind":"click","value":null}"#);
    assert_eq!(status, 200, "{body}");
    assert!(body.contains("\"ok\":true"));

    // GET /state: the categories are visible in the UI state JSON.
    let (status, state) = get(addr, "/state");
    assert_eq!(status, 200);
    assert!(state.contains("Beds"), "{state}");
    assert!(state.contains("Sofas"), "{state}");

    // Select a category, then a product, through the same AJAX channel.
    post_event(
        addr,
        r#"{"control":"categories","kind":"select","value":0}"#,
    );
    post_event(addr, r#"{"control":"products","kind":"select","value":0}"#);
    let (_, state) = get(addr, "/state");
    assert!(state.contains("Aurora"), "{state}");

    // Search by typing.
    post_event(addr, r#"{"control":"search","kind":"text","value":"sofa"}"#);
    let (_, state) = get(addr, "/state");
    assert!(state.to_lowercase().contains("sofa"), "{state}");

    // A browser refresh shows the *live* page: the re-rendered HTML now
    // contains the search results that weren't in the original render.
    let (status, page) = get(addr, "/");
    assert_eq!(status, 200);
    // (Apostrophes arrive HTML-escaped, so match an unescaped fragment.)
    assert!(page.contains("Ease"), "live rerender missing data:\n{page}");

    // Unknown routes and malformed events fail cleanly.
    assert_eq!(get(addr, "/nope").0, 404);
    assert_eq!(post_event(addr, "garbage").0, 400);

    assert!(gateway.requests_served() >= 8);
    gateway.stop();
    session.close();
    conn.close();
}
