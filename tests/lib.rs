//! Shared helpers for the cross-crate integration tests.

use pov_core::pov_topology::{Graph, GraphBuilder, HostId};

/// The Fig 5 / Example 5.1 four-host P2P network:
/// `w(h0) — x(h1)`, `w — y(h2)`, `x — z(h3)`, `y — z(h3)`.
pub fn example_5_1_graph() -> Graph {
    let mut b = GraphBuilder::with_hosts(4);
    b.add_edge(HostId(0), HostId(1));
    b.add_edge(HostId(0), HostId(2));
    b.add_edge(HostId(1), HostId(3));
    b.add_edge(HostId(2), HostId(3));
    b.build()
}

/// The Fig 5 attribute values: `A_w = 5, A_x = 15, A_y = 1, A_z = 25`.
pub fn example_5_1_values() -> Vec<u64> {
    vec![5, 15, 1, 25]
}

/// The Example 1.1 sensor network: 16 sensors in a 4×4 grid (Moore
/// connectivity, matching Fig 1's dense sensor field).
pub fn example_1_1_graph() -> Graph {
    pov_core::pov_topology::generators::grid_square(4)
}

/// FNV-1a 64 over `bytes`: the hash of every line of
/// `tests/golden/outputs.txt` (and of the benchmark's fingerprint).
pub fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |hash, &byte| {
        (hash ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// One line of `tests/golden/outputs.txt`: `name length fnv1a64`.
pub fn digest_line(name: &str, bytes: &[u8]) -> String {
    format!("{name} {} {:016x}", bytes.len(), fnv1a(bytes))
}

/// The path of `tests/golden/outputs.txt`.
pub fn golden_path() -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden/outputs.txt")
}

/// Check the lines of `tests/golden/outputs.txt` that start with
/// `prefix` against `lines`, failing with `moved` when they differ. With
/// `POV_BLESS=1` set, rewrite those lines to `lines` instead and leave
/// every other line of the file as it is.
pub fn check_golden_lines(prefix: &str, lines: &[String], moved: &str) {
    let golden = std::fs::read_to_string(golden_path()).expect("tests/golden/outputs.txt exists");
    if std::env::var_os("POV_BLESS").is_some_and(|v| v == "1") {
        let mut text: String = golden
            .lines()
            .filter(|l| !l.starts_with(prefix))
            .map(|l| format!("{l}\n"))
            .collect();
        for l in lines {
            text.push_str(l);
            text.push('\n');
        }
        std::fs::write(golden_path(), text).expect("write the golden file");
        return;
    }
    let pinned: Vec<&str> = golden.lines().filter(|l| l.starts_with(prefix)).collect();
    assert_eq!(pinned, lines, "{moved} (pinned left, now right)");
}
