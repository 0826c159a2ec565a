//! The experiment drivers: one function per table/figure of the paper,
//! plus the ablations called out in `DESIGN.md` §4.
//!
//! Each driver returns a structured result (so tests can assert the
//! paper's qualitative claims) with a `render()` method for the `repro`
//! binary's output.

use alfredo_apps::shop::SHOP_INTERFACE;
use alfredo_apps::{register_mouse_controller, register_shop, sample_catalog, MOUSE_INTERFACE};
use alfredo_core::{AlfredOEngine, Device, EngineConfig, FootprintItem, FootprintReport};
use alfredo_net::{InMemoryNetwork, LinkProfile, PeerAddr};
use alfredo_osgi::Framework;
use alfredo_rosgi::DiscoveryDirectory;
use alfredo_sim::{DeviceProfile, SimDuration, Summary};
use alfredo_ui::DeviceCapabilities;

use crate::calib;
use crate::model::{
    mouse_wire_sizes, shop_wire_sizes, InvocationLoadSim, LoadConfig, PhoneLoopConfig,
    PhoneLoopSim, StartupBreakdown, StartupModel,
};
use crate::report::{Series, Table};

fn ms(d: SimDuration) -> String {
    format!("{:.0}", d.as_millis_f64())
}

// ---------------------------------------------------------------------
// §4.1 — Resource consumption
// ---------------------------------------------------------------------

/// The §4.1 result: file footprints of shippable artifacts and runtime
/// memory of both applications, measured on live sessions.
#[derive(Debug)]
pub struct FootprintResult {
    /// The measurements.
    pub report: FootprintReport,
    /// MouseController runtime memory (bytes).
    pub mouse_runtime: u64,
    /// AlfredOShop runtime memory (bytes).
    pub shop_runtime: u64,
}

impl FootprintResult {
    /// Renders the §4.1 table.
    pub fn render(&self) -> String {
        format!("== §4.1 Resource consumption ==\n{}\n", self.report)
    }

    /// CSV rows: `experiment,item,bytes,paper_bytes`.
    pub fn csv(&self) -> String {
        let mut out = String::from("experiment,item,bytes,paper_bytes\n");
        for item in self.report.items() {
            out.push_str(&format!(
                "footprint,{:?},{},{}\n",
                item.name,
                item.bytes,
                item.paper_bytes.map(|b| b.to_string()).unwrap_or_default()
            ));
        }
        out
    }
}

/// Runs the resource-consumption experiment on live in-memory sessions.
pub fn footprint() -> FootprintResult {
    let mut report = FootprintReport::new();

    // Platform footprint: the compiled client binary, if discoverable.
    if let Some((path, bytes)) = platform_binary() {
        report.push(FootprintItem::with_paper(
            format!("core platform (binary: {})", path),
            bytes,
            290 * 1024,
        ));
    }

    // Shippable artifact sizes (exact encoded bytes).
    let mouse_sizes = mouse_wire_sizes();
    let shop_sizes = shop_wire_sizes();
    report.push(FootprintItem::with_paper(
        "MouseController shipped bundle (iface+descriptor)",
        mouse_sizes.service_bundle as u64,
        2 * 1024,
    ));
    report.push(FootprintItem::with_paper(
        "AlfredOShop shipped bundle (iface+descriptor)",
        shop_sizes.service_bundle as u64,
        2 * 1024,
    ));

    // Live sessions: proxy bundle footprints and runtime memory.
    let (mouse_proxy, mouse_runtime, renderer_artifacts) = live_mouse_measurements();
    let (shop_proxy, shop_runtime) = live_shop_measurements();
    report.push(FootprintItem::with_paper(
        "MouseController proxy bundle (generated)",
        mouse_proxy,
        6 * 1024,
    ));
    report.push(FootprintItem::with_paper(
        "AlfredOShop proxy bundle (generated)",
        shop_proxy,
        7 * 1024,
    ));
    for (name, bytes) in renderer_artifacts {
        report.push(FootprintItem::new(name, bytes));
    }
    report.push(FootprintItem::with_paper(
        "MouseController runtime memory (RGB snapshot dominates)",
        mouse_runtime,
        200 * 1024,
    ));
    report.push(FootprintItem::with_paper(
        "AlfredOShop runtime memory",
        shop_runtime,
        30 * 1024,
    ));

    FootprintResult {
        report,
        mouse_runtime,
        shop_runtime,
    }
}

fn platform_binary() -> Option<(String, u64)> {
    // Prefer the quickstart example (a minimal client); fall back to the
    // running binary.
    for candidate in [
        "target/release/examples/quickstart",
        "target/debug/examples/quickstart",
    ] {
        if let Ok(meta) = std::fs::metadata(candidate) {
            return Some((candidate.to_owned(), meta.len()));
        }
    }
    let exe = std::env::current_exe().ok()?;
    let meta = std::fs::metadata(&exe).ok()?;
    Some((exe.file_name()?.to_string_lossy().into_owned(), meta.len()))
}

/// Runs a real MouseController session and measures the proxy footprint,
/// runtime memory (after a snapshot arrived), and rendered-artifact sizes.
fn live_mouse_measurements() -> (u64, u64, Vec<(String, u64)>) {
    let net = InMemoryNetwork::new();
    let fw = Framework::new();
    let (service, _reg) = register_mouse_controller(&fw, 1280, 800).expect("register");
    let device = Device::new(fw)
        .serve(&net, PeerAddr::new("fp-laptop"))
        .expect("serve");
    let engine = AlfredOEngine::new(
        Framework::new(),
        net,
        DiscoveryDirectory::new(),
        EngineConfig::phone("fp-phone", DeviceCapabilities::nokia_9300i()),
    );
    let conn = engine
        .connect(&PeerAddr::new("fp-laptop"))
        .expect("connect");
    let session = conn.acquire(MOUSE_INTERFACE).expect("acquire");
    // Drive a snapshot into the session so runtime memory includes the
    // bitmap, as in the paper's measurement.
    let mut runtime = session.memory_footprint() as u64;
    for i in 0..200u64 {
        service.maybe_publish_snapshot(i, 0);
        session.pump_events().expect("pump");
        let m = session.memory_footprint() as u64;
        if m > 150_000 {
            runtime = m;
            break;
        }
        std::thread::sleep(std::time::Duration::from_millis(5));
    }
    let proxy = session.proxy_footprint() as u64;

    // Renderer artifacts for the same UI on different backends.
    let ui = &session.descriptor().ui;
    let mut renderers = Vec::new();
    use alfredo_ui::render::{GridRenderer, HtmlRenderer, Renderer, WidgetRenderer};
    for (name, rendered) in [
        (
            "grid renderer artifact (AWT stand-in)",
            GridRenderer::default().render(ui, &DeviceCapabilities::nokia_9300i()),
        ),
        (
            "widget renderer artifact (SWT stand-in)",
            WidgetRenderer::default().render(ui, &DeviceCapabilities::nokia_9300i()),
        ),
        (
            "html renderer artifact (servlet stand-in)",
            HtmlRenderer::default().render(ui, &DeviceCapabilities::iphone()),
        ),
    ] {
        if let Ok(r) = rendered {
            renderers.push((name.to_owned(), r.memory_footprint() as u64));
        }
    }
    session.close();
    conn.close();
    device.stop();
    (proxy, runtime, renderers)
}

fn live_shop_measurements() -> (u64, u64) {
    let net = InMemoryNetwork::new();
    let fw = Framework::new();
    register_shop(&fw, sample_catalog()).expect("register");
    let device = Device::new(fw)
        .serve(&net, PeerAddr::new("fp-screen"))
        .expect("serve");
    let engine = AlfredOEngine::new(
        Framework::new(),
        net,
        DiscoveryDirectory::new(),
        EngineConfig::phone("fp-phone2", DeviceCapabilities::nokia_9300i()),
    );
    let conn = engine
        .connect(&PeerAddr::new("fp-screen"))
        .expect("connect");
    let session = conn.acquire(SHOP_INTERFACE).expect("acquire");
    // Interact a bit so state is realistic.
    session
        .handle_event(&alfredo_ui::UiEvent::Click {
            control: "refresh".into(),
        })
        .expect("refresh");
    session
        .handle_event(&alfredo_ui::UiEvent::Selected {
            control: "categories".into(),
            index: 0,
        })
        .expect("select");
    let runtime = session.memory_footprint() as u64;
    let proxy = session.proxy_footprint() as u64;
    session.close();
    conn.close();
    device.stop();
    (proxy, runtime)
}

// ---------------------------------------------------------------------
// Tables 1 & 2
// ---------------------------------------------------------------------

/// The result of a Table 1/2 run.
#[derive(Debug)]
pub struct StartupResult {
    /// Table title.
    pub title: String,
    /// MouseController phases.
    pub mouse: StartupBreakdown,
    /// AlfredOShop phases.
    pub shop: StartupBreakdown,
    /// The paper's total times (ms) for the side-by-side.
    pub paper_totals: (u64, u64),
}

impl StartupResult {
    /// Renders in the paper's row layout.
    pub fn render(&self) -> String {
        let mut t = Table::new(
            self.title.clone(),
            vec!["MouseController".into(), "AlfredOShop".into()],
        );
        t.row(
            "Acquire service interface",
            vec![ms(self.mouse.acquire), ms(self.shop.acquire)],
        );
        t.row(
            "Build proxy bundle",
            vec![ms(self.mouse.build), ms(self.shop.build)],
        );
        t.row(
            "Install proxy bundle",
            vec![ms(self.mouse.install), ms(self.shop.install)],
        );
        t.row(
            "Start proxy bundle",
            vec![ms(self.mouse.start), ms(self.shop.start)],
        );
        t.row(
            "Total start time",
            vec![ms(self.mouse.total()), ms(self.shop.total())],
        );
        t.row(
            "(paper total)",
            vec![
                format!("{}", self.paper_totals.0),
                format!("{}", self.paper_totals.1),
            ],
        );
        t.render()
    }

    /// CSV rows: `experiment,phase,mouse_ms,shop_ms`.
    pub fn csv(&self) -> String {
        let id = if self.title.contains("Table 1") {
            "table1"
        } else {
            "table2"
        };
        let mut out = String::from("experiment,phase,mouse_ms,shop_ms\n");
        for (phase, m, s) in [
            ("acquire", self.mouse.acquire, self.shop.acquire),
            ("build", self.mouse.build, self.shop.build),
            ("install", self.mouse.install, self.shop.install),
            ("start", self.mouse.start, self.shop.start),
            ("total", self.mouse.total(), self.shop.total()),
        ] {
            out.push_str(&format!(
                "{id},{phase},{:.1},{:.1}\n",
                m.as_millis_f64(),
                s.as_millis_f64()
            ));
        }
        out
    }
}

fn startup(
    phone: DeviceProfile,
    link: LinkProfile,
    title: &str,
    paper: (u64, u64),
) -> StartupResult {
    let model = StartupModel { phone, link };
    StartupResult {
        title: title.to_owned(),
        mouse: model.run(mouse_wire_sizes(), calib::START_MOUSE_CYCLES),
        shop: model.run(shop_wire_sizes(), calib::START_SHOP_CYCLES),
        paper_totals: paper,
    }
}

/// Table 1: initial delay on a Nokia 9300i over WLAN.
pub fn table1() -> StartupResult {
    startup(
        calib::nokia_9300i(),
        calib::phone_wlan(),
        "Table 1 — initial delay, Nokia 9300i over WLAN (ms)",
        (4922, 4282),
    )
}

/// Table 2: initial delay on a Sony Ericsson M600i over Bluetooth.
pub fn table2() -> StartupResult {
    startup(
        calib::sony_ericsson_m600i(),
        calib::phone_bluetooth(),
        "Table 2 — initial delay, SE M600i over Bluetooth (ms)",
        (3296, 2699),
    )
}

// ---------------------------------------------------------------------
// Figures 3 & 4
// ---------------------------------------------------------------------

/// The result of a scalability figure.
#[derive(Debug)]
pub struct ScalabilityResult {
    /// Figure title.
    pub title: String,
    /// (clients, mean latency ms, p95 ms) per step.
    pub points: Vec<(usize, f64, f64)>,
}

impl ScalabilityResult {
    /// Mean latency at a given client count, if simulated.
    pub fn mean_at(&self, clients: usize) -> Option<f64> {
        self.points
            .iter()
            .find(|(c, _, _)| *c == clients)
            .map(|(_, m, _)| *m)
    }

    /// Renders the series.
    pub fn render(&self) -> String {
        let mut s = Series::new(self.title.clone(), "clients", "mean ms");
        for (c, mean, _) in &self.points {
            s.push(*c as f64, *mean);
        }
        s.render()
    }

    /// CSV rows: `experiment,clients,mean_ms,p95_ms`.
    pub fn csv(&self) -> String {
        let id = if self.title.contains("Figure 3") {
            "fig3"
        } else {
            "fig4"
        };
        let mut out = String::from("experiment,clients,mean_ms,p95_ms\n");
        for (c, mean, p95) in &self.points {
            out.push_str(&format!("{id},{c},{mean:.3},{p95:.3}\n"));
        }
        out
    }
}

fn run_load(
    title: &str,
    steps: &[usize],
    config: impl Fn(usize) -> LoadConfig,
) -> ScalabilityResult {
    let mut points = Vec::new();
    for &clients in steps {
        let mut summary = InvocationLoadSim::new(config(clients)).run();
        points.push((clients, summary.mean(), summary.percentile(95.0)));
    }
    ScalabilityResult {
        title: title.to_owned(),
        points,
    }
}

/// Figure 3: invocation time with 1–128 concurrent clients on a single
/// client machine.
pub fn fig3(measure_secs: u64) -> ScalabilityResult {
    run_load(
        "Figure 3 — invocation time vs clients (1 machine, 100 Mb LAN)",
        &[1, 2, 4, 8, 16, 32, 64, 128],
        |clients| LoadConfig {
            measure_window: SimDuration::from_secs(measure_secs),
            ..LoadConfig::fig3(clients)
        },
    )
}

/// Figure 4: invocation time with 6–384 clients on six cluster nodes,
/// plus the 540/600 overload points discussed in the text.
pub fn fig4(measure_secs: u64) -> ScalabilityResult {
    run_load(
        "Figure 4 — invocation time vs clients (6 cluster nodes, 1 Gb LAN)",
        &[6, 12, 24, 48, 96, 192, 384, 540, 600],
        |clients| LoadConfig {
            measure_window: SimDuration::from_secs(measure_secs),
            ..LoadConfig::fig4(clients)
        },
    )
}

// ---------------------------------------------------------------------
// Figures 5 & 6
// ---------------------------------------------------------------------

/// The result of a phone-side figure.
#[derive(Debug)]
pub struct PhoneLoopResult {
    /// Figure title.
    pub title: String,
    /// (services, mean latency ms).
    pub points: Vec<(usize, f64)>,
    /// The ping baseline in ms.
    pub ping_ms: f64,
}

impl PhoneLoopResult {
    /// Mean over all steps.
    pub fn overall_mean(&self) -> f64 {
        if self.points.is_empty() {
            return 0.0;
        }
        self.points.iter().map(|(_, m)| m).sum::<f64>() / self.points.len() as f64
    }

    /// Renders the series with the ping baseline.
    pub fn render(&self) -> String {
        let mut s = Series::new(self.title.clone(), "services", "mean ms")
            .with_baseline("ICMP ping", self.ping_ms);
        for (n, mean) in &self.points {
            s.push(*n as f64, *mean);
        }
        s.render()
    }

    /// CSV rows: `experiment,services,mean_ms,ping_ms`.
    pub fn csv(&self) -> String {
        let id = if self.title.contains("Figure 5") {
            "fig5"
        } else {
            "fig6"
        };
        let mut out = String::from("experiment,services,mean_ms,ping_ms\n");
        for (n, mean) in &self.points {
            out.push_str(&format!("{id},{n},{mean:.3},{:.3}\n", self.ping_ms));
        }
        out
    }
}

fn run_phone_loop(title: &str, config: PhoneLoopConfig) -> PhoneLoopResult {
    let sim = PhoneLoopSim::new(config);
    let mut points = Vec::new();
    for services in [5usize, 10, 15, 20, 25, 30, 35, 40] {
        let summary: Summary = sim.run(services);
        points.push((services, summary.mean()));
    }
    PhoneLoopResult {
        title: title.to_owned(),
        points,
        ping_ms: sim.ping_baseline().as_millis_f64(),
    }
}

/// Figure 5: invocation time vs. number of services on a Nokia 9300i over
/// 802.11b WLAN.
pub fn fig5() -> PhoneLoopResult {
    run_phone_loop(
        "Figure 5 — invocation time vs services, Nokia 9300i over WLAN",
        PhoneLoopConfig::fig5(),
    )
}

/// Figure 6: the same on a Sony Ericsson M600i over Bluetooth 2.0.
pub fn fig6() -> PhoneLoopResult {
    run_phone_loop(
        "Figure 6 — invocation time vs services, SE M600i over Bluetooth",
        PhoneLoopConfig::fig6(),
    )
}

// ---------------------------------------------------------------------
// Ablations
// ---------------------------------------------------------------------

/// Results of the design-choice ablations of `DESIGN.md` §4.
#[derive(Debug)]
pub struct AblationResult {
    /// (link name, cold-start ms, cached-repeat ms).
    pub proxy_cache: Vec<(&'static str, f64, f64)>,
    /// (link name, remote-call ms, offloaded-local ms).
    pub offload: Vec<(&'static str, f64, f64)>,
    /// (link name, description-ship ms, code-ship ms).
    pub presentation: Vec<(&'static str, f64, f64)>,
    /// (link name, remote-get ms, replica-read ms) — the data-tier
    /// synchronization extension.
    pub data_replica: Vec<(&'static str, f64, f64)>,
}

impl AblationResult {
    /// Renders the three tables.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let mut t = Table::new(
            "Ablation A — proxy caching (Nokia 9300i, MouseController)",
            vec!["cold start (ms)".into(), "cached repeat (ms)".into()],
        );
        for (link, cold, cached) in &self.proxy_cache {
            t.row(*link, vec![format!("{cold:.0}"), format!("{cached:.0}")]);
        }
        out.push_str(&t.render());
        out.push('\n');

        let mut t = Table::new(
            "Ablation B — logic offload (compare() on the phone vs remote)",
            vec!["remote call (ms)".into(), "offloaded local (ms)".into()],
        );
        for (link, remote, local) in &self.offload {
            t.row(*link, vec![format!("{remote:.1}"), format!("{local:.1}")]);
        }
        out.push_str(&t.render());
        out.push('\n');

        let mut t = Table::new(
            "Ablation C — shipping a description vs shipping UI code",
            vec!["description (ms)".into(), "code bundle (ms)".into()],
        );
        for (link, desc, code) in &self.presentation {
            t.row(*link, vec![format!("{desc:.1}"), format!("{code:.1}")]);
        }
        out.push_str(&t.render());
        out.push('\n');

        let mut t = Table::new(
            "Ablation D — data-tier reads: remote get vs synchronized replica",
            vec!["remote get (ms)".into(), "replica read (ms)".into()],
        );
        for (link, remote, local) in &self.data_replica {
            t.row(*link, vec![format!("{remote:.2}"), format!("{local:.4}")]);
        }
        out.push_str(&t.render());
        out
    }
}

/// Runs the ablations.
pub fn ablations() -> AblationResult {
    let phone = calib::nokia_9300i();
    let cpu = phone.cpu();
    let links: Vec<(&'static str, LinkProfile)> = vec![
        ("100Mb LAN", calib::lan_100()),
        ("802.11b WLAN", calib::phone_wlan()),
        ("Bluetooth 2.0", calib::phone_bluetooth()),
    ];

    // A: proxy caching. Cold = full Table-1 pipeline; cached = acquire
    // only (validate the lease, skip build+install; start still runs).
    let mouse = mouse_wire_sizes();
    let proxy_cache = links
        .iter()
        .map(|(name, link)| {
            let model = StartupModel {
                phone: phone.clone(),
                link: link.clone(),
            };
            let b = model.run(mouse, calib::START_MOUSE_CYCLES);
            let cold = b.total().as_millis_f64();
            let cached = (b.acquire + b.start).as_millis_f64();
            (*name, cold, cached)
        })
        .collect();

    // B: logic offload. The comparison costs ~2 M cycles of pure compute.
    const COMPARE_CYCLES: u64 = 2_000_000;
    const MARSHAL_CYCLES: u64 = 1_000_000;
    let server = calib::pentium4_desktop();
    let offload = links
        .iter()
        .map(|(name, link)| {
            let remote = cpu.service_time(MARSHAL_CYCLES)
                + link.ping_rtt(200)
                + server.cpu().service_time(COMPARE_CYCLES);
            let local = cpu.service_time(COMPARE_CYCLES);
            (*name, remote.as_millis_f64(), local.as_millis_f64())
        })
        .collect();

    // C: description vs code. The description is the real encoded UI;
    // a code-bearing presentation bundle is ~40 kB (the paper's renderer
    // size) and additionally requires trust.
    let description_bytes = alfredo_apps::MouseControllerService::descriptor()
        .ui
        .encode()
        .len();
    let code_bytes = 40 * 1024;
    let presentation = links
        .iter()
        .map(|(name, link)| {
            let desc = link.transfer_time(description_bytes).as_millis_f64();
            let code = link.transfer_time(code_bytes).as_millis_f64();
            (*name, desc, code)
        })
        .collect();

    // D: data-tier reads. A remote `get` pays marshal + RTT + lookup per
    // read; a synchronized replica reads from local memory (a hash lookup,
    // ~5k cycles on the phone), having paid one snapshot up front.
    const REPLICA_READ_CYCLES: u64 = 5_000;
    const REMOTE_GET_MARSHAL_CYCLES: u64 = 500_000;
    let data_replica = links
        .iter()
        .map(|(name, link)| {
            let remote = cpu.service_time(REMOTE_GET_MARSHAL_CYCLES)
                + link.ping_rtt(80)
                + server.cpu().service_time(200_000);
            let local = cpu.service_time(REPLICA_READ_CYCLES);
            (*name, remote.as_millis_f64(), local.as_millis_f64())
        })
        .collect();

    AblationResult {
        proxy_cache,
        offload,
        presentation,
        data_replica,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_shape_matches_paper() {
        let t1 = table1();
        // Build dominates every other phase.
        assert!(t1.mouse.build > t1.mouse.acquire + t1.mouse.install + t1.mouse.start);
        // MouseController starts slower than the shop (1000 vs 359 ms).
        assert!(t1.mouse.start > t1.shop.start * 2);
        // The shop's bigger payload makes its acquire slower.
        assert!(t1.shop.acquire > t1.mouse.acquire);
        // Totals within 2x of the paper's.
        let total = t1.mouse.total().as_millis_f64();
        assert!((2500.0..9000.0).contains(&total), "{total}");
    }

    #[test]
    fn table2_is_faster_cpu_slower_network() {
        let t1 = table1();
        let t2 = table2();
        // CPU phases: the M600i is ~40% faster.
        assert!(t2.mouse.build < t1.mouse.build);
        let speedup = t1.mouse.build.as_secs_f64() / t2.mouse.build.as_secs_f64();
        assert!((1.25..1.55).contains(&speedup), "{speedup}");
        // Network phase: Bluetooth acquire is ~3x WLAN acquire.
        let ratio = t2.mouse.acquire.as_secs_f64() / t1.mouse.acquire.as_secs_f64();
        assert!((1.8..4.5).contains(&ratio), "acquire BT/WLAN {ratio}");
        // Totals: the M600i is faster overall despite the slower link.
        assert!(t2.mouse.total() < t1.mouse.total());
    }

    #[test]
    fn fig3_stays_low_to_128_clients() {
        let r = fig3(8);
        let one = r.mean_at(1).unwrap();
        let full = r.mean_at(128).unwrap();
        assert!((0.4..2.0).contains(&one), "1 client: {one} ms (paper ~1)");
        assert!(full < 4.0, "128 clients: {full} ms (paper < 2.5)");
        assert!(full >= one);
    }

    #[test]
    fn fig4_knee_is_between_400_and_800() {
        let r = fig4(8);
        let at384 = r.mean_at(384).unwrap();
        let at540 = r.mean_at(540).unwrap();
        let at600 = r.mean_at(600).unwrap();
        assert!(at384 < 5.0, "384 clients: {at384} ms (paper 2.2)");
        assert!(at540 < 20.0, "540 clients: {at540} ms (paper 3.6)");
        assert!(
            at600 > at540 * 4.0,
            "overload blowup: {at540} -> {at600} ms (paper >42)"
        );
    }

    #[test]
    fn fig5_fig6_flat_and_comparable() {
        let f5 = fig5();
        let f6 = fig6();
        // Around 100 ms, flat in the service count, above the ping line.
        assert!(
            (60.0..160.0).contains(&f5.overall_mean()),
            "{}",
            f5.overall_mean()
        );
        let spread = f5.points.iter().map(|(_, m)| *m).fold(0.0f64, f64::max)
            - f5.points
                .iter()
                .map(|(_, m)| *m)
                .fold(f64::INFINITY, f64::min);
        assert!(spread < 40.0, "fig5 spread {spread}");
        assert!(f5.overall_mean() > f5.ping_ms);
        // BT is comparable (well within 2x) despite 4x less bandwidth.
        let ratio = f6.overall_mean() / f5.overall_mean();
        assert!((0.5..2.0).contains(&ratio), "fig6/fig5 {ratio}");
    }

    #[test]
    fn ablation_offload_crossover() {
        let a = ablations();
        // On a fast LAN, calling remotely beats local phone compute; on
        // slow phone links, offloading wins.
        let lan = a
            .offload
            .iter()
            .find(|(n, _, _)| *n == "100Mb LAN")
            .unwrap();
        assert!(lan.1 < lan.2, "LAN: remote {} < local {}", lan.1, lan.2);
        let bt = a
            .offload
            .iter()
            .find(|(n, _, _)| *n == "Bluetooth 2.0")
            .unwrap();
        assert!(bt.1 > bt.2, "BT: remote {} > local {}", bt.1, bt.2);
    }

    #[test]
    fn ablation_proxy_cache_saves_build_time() {
        let a = ablations();
        for (link, cold, cached) in &a.proxy_cache {
            assert!(cached * 2.0 < *cold, "{link}: {cached} vs {cold}");
        }
    }

    #[test]
    fn ablation_description_is_cheaper_than_code() {
        let a = ablations();
        for (link, desc, code) in &a.presentation {
            assert!(desc < code, "{link}: {desc} vs {code}");
        }
    }

    #[test]
    fn ablation_replica_reads_beat_remote_gets_on_every_link() {
        let a = ablations();
        for (link, remote, local) in &a.data_replica {
            assert!(
                *local * 10.0 < *remote,
                "{link}: local {local} vs remote {remote}"
            );
        }
    }
}
