//! `pdl-canon-v1` content hashes, pinned.
//!
//! A content hash is the provenance of a release: the registry resolves a
//! pin like `name@1.0.0 (hash12)` to the exact model instance a result was
//! produced with. So a change to how a `Platform` stores its text must not
//! move one. These pins were taken before the descriptor's strings became
//! shared text and hold unedited after it:
//!
//! * the 48 catalog shapes of the `retarget_catalog` ledger workload, built
//!   by `pdl_discover::synthetic` as its set-up builds them, before the
//!   seeded rename;
//! * every shipped descriptor in `examples/platforms/`, parsed from its file.
//!
//! `tests/props.rs` pins a sample of its generated platforms the same way.

use pdl_core::platform::Platform;
use pdl_discover::synthetic::{build_testbed, gpgpu_cluster, numa_host, TestbedOptions};
use pdl_registry::content_hash;

/// The catalog in `retarget_catalog`'s order: 24 clusters, 12 NUMA hosts,
/// 12 testbeds.
fn catalog() -> Vec<Platform> {
    let mut platforms = Vec::new();
    for nodes in [4, 8, 12, 16, 24, 32, 48, 64] {
        for gpus in 1..=3 {
            platforms.push(gpgpu_cluster(nodes, gpus));
        }
    }
    for sockets in [2, 4, 8] {
        for cores in [4, 8, 16, 32] {
            platforms.push(numa_host(sockets, cores));
        }
    }
    for cpu_cores in [4, 8, 16] {
        for (gpus, nvlink_gpus) in [
            (vec![], false),
            (vec!["GeForce GTX 480"], false),
            (vec!["GeForce GTX 480", "GeForce GTX 285"], false),
            (vec!["GeForce GTX 480", "GeForce GTX 285"], true),
        ] {
            let name = format!("testbed-{cpu_cores}c-{}g-{nvlink_gpus}", gpus.len());
            let opts = TestbedOptions {
                cpu_cores,
                gpus,
                nvlink_gpus,
                ..TestbedOptions::default()
            };
            platforms.push(build_testbed(&name, &opts));
        }
    }
    platforms
}

const CATALOG_PINS: [(&str, &str); 48] = [
    (
        "gpgpu-cluster-4x1",
        "sha256:5712aa3bad887a264e0f42bdb163af49f108216e656f65d6784574a9356ec845",
    ),
    (
        "gpgpu-cluster-4x2",
        "sha256:e6449d02b7bcfd91131f0cec37513d720d7a3e3d375ca88ca5f5758010100003",
    ),
    (
        "gpgpu-cluster-4x3",
        "sha256:36572e9e390fc6d7600c0b059f4280eb7f300220203a10b3200b662ad218bd6c",
    ),
    (
        "gpgpu-cluster-8x1",
        "sha256:bd09c0ef7da37a63b569ff9f072f4a1b7f2b18f621d4265a8ba758eeff28bb05",
    ),
    (
        "gpgpu-cluster-8x2",
        "sha256:d7ea49755a0af6cc62eef580ca14d065ddf5dd7851270162a890fbfdacfaf98d",
    ),
    (
        "gpgpu-cluster-8x3",
        "sha256:bcbe9f5585c70c87dae2c20621d716469fc149607964f20c56c9c819693a6ef6",
    ),
    (
        "gpgpu-cluster-12x1",
        "sha256:633d18eb36d74a77a672b4bdad09338341373086224326e573a50868a9d79cc7",
    ),
    (
        "gpgpu-cluster-12x2",
        "sha256:e2a3166b1eb9d06c6aa92d351cd68a7008469091fe120629161d433b9ecb70b5",
    ),
    (
        "gpgpu-cluster-12x3",
        "sha256:b07562202d71c39fe92e2a94e7d70f31df86c60327c95ed3470e84719601f99b",
    ),
    (
        "gpgpu-cluster-16x1",
        "sha256:6e1bf8560b7d5514a18b77cae325890146854d0f7e7705739ae77397b0e1ec16",
    ),
    (
        "gpgpu-cluster-16x2",
        "sha256:8bb431556b59a059bfd4345b6e503ab2fbaf5a5ce4bb14293db42fd5bc5d6c04",
    ),
    (
        "gpgpu-cluster-16x3",
        "sha256:14c8364a96315c27ccd1189db6c23c2ad83a1ca1d5be51c0b8933180c05b127a",
    ),
    (
        "gpgpu-cluster-24x1",
        "sha256:34adc53381150e335b7284cf0eeafae67321377f2341aff8bbfbf36738d5711f",
    ),
    (
        "gpgpu-cluster-24x2",
        "sha256:f524edd1213f55fed48507c521e162a7367fa2c5ecc0216b49cf11fb1bd9d472",
    ),
    (
        "gpgpu-cluster-24x3",
        "sha256:5e57cf923d8a86519bb4418fcc4353b15168a3c666a654141618968d759c0639",
    ),
    (
        "gpgpu-cluster-32x1",
        "sha256:f3f16454df9434ee0ae46f211c5f0f14addcbfd6dc8e270e4a3d1fc5932df7ae",
    ),
    (
        "gpgpu-cluster-32x2",
        "sha256:e9c48b243a24f8c940f8611a16e55b1321801ee099eb09d50960a55288afc405",
    ),
    (
        "gpgpu-cluster-32x3",
        "sha256:549dd1469245647393b6dfd171faddfa8a4cf3f20ba7e3e5ae60ae32a977c9e1",
    ),
    (
        "gpgpu-cluster-48x1",
        "sha256:d4b2a113212fe363e6b331c886d6298d69c63bb68e9b5e571c44daa6afce62e2",
    ),
    (
        "gpgpu-cluster-48x2",
        "sha256:b411ad6ae7a8296262df1765bcfdfe98f7acf8c82fae0651b7b77dfc5d81ea97",
    ),
    (
        "gpgpu-cluster-48x3",
        "sha256:1d8316faf38b9fa163acc80db29a37e018b7fc7e9fead5e6c377743a5de4a563",
    ),
    (
        "gpgpu-cluster-64x1",
        "sha256:25c178b14568c930409cd2ccfb40be5d4ae01945ca4e57f7b7ce9289bc9bb466",
    ),
    (
        "gpgpu-cluster-64x2",
        "sha256:e93f5fc08c6d6c0c8589c2f0056a6174224c3a8e9f1bac18bd85324047c5bcd3",
    ),
    (
        "gpgpu-cluster-64x3",
        "sha256:866627cab18a56e0b8f59c577386b76ca1ef82462c02f9be87789fc58662c3f5",
    ),
    (
        "numa-2x4",
        "sha256:f4adb402b82a4e4228f3bcbdcfc431879c931201a7a3fee3cb08bfbc8537d485",
    ),
    (
        "numa-2x8",
        "sha256:6829f01cc142c38de5f6d35c2e86efa052f1e633792069d95f26463ae6530d87",
    ),
    (
        "numa-2x16",
        "sha256:15183dfdafb4925095ac74b47a311a75323dbe7f3bf8227ba71366f9d4a7b6f8",
    ),
    (
        "numa-2x32",
        "sha256:5f28bb065811be2dfaf0f61caf67e2ee7fd228ba213a6e15e91454f75a97c230",
    ),
    (
        "numa-4x4",
        "sha256:0d4f28246ea2cd0d2d8c153478a87d9350a6fe9689c896d737e572cad149f3e2",
    ),
    (
        "numa-4x8",
        "sha256:4ec8d55f64d7abc3bcde9e0b103c983921b9d4bcec5194cbcbb081975600c92b",
    ),
    (
        "numa-4x16",
        "sha256:4a2bb3ba9f20c676aa0b893a7b2b5db184765f2cb36663ec3bdaec0d8ca4a7ce",
    ),
    (
        "numa-4x32",
        "sha256:9b253e428a5da3c89b33b9d4a16154515c1a68c0bb25e9ed14dfbe7462f7dfd9",
    ),
    (
        "numa-8x4",
        "sha256:6a32c925df61da52fa55ef6ca276c3edfcd45abbf6342cbafed09cfcfb8e9890",
    ),
    (
        "numa-8x8",
        "sha256:2efa5c4dcb48da3c5154e139eed30d731e4ca9d40aa4d6e0040d50e44ef5362a",
    ),
    (
        "numa-8x16",
        "sha256:356cf503d8048c84b37c8dd6e791a8f19e28dbd184024e760933e6b641bf76a6",
    ),
    (
        "numa-8x32",
        "sha256:e01b9ca4c543004087520811d1219f49b3a7082acc1977a1e0338d67f77a78f0",
    ),
    (
        "testbed-4c-0g-false",
        "sha256:de34ed49957654105f31cb88f15abda7e0d4d2866d084e726ef30f6f06216ce1",
    ),
    (
        "testbed-4c-1g-false",
        "sha256:a656d482ed61740742295e8aa2efab2cbddb4bd5cd6a2d98f342828ae32453d1",
    ),
    (
        "testbed-4c-2g-false",
        "sha256:cfc38b285fb0721ee802ad1a6622e15527fa8dc225c17137c7964915aa6b3082",
    ),
    (
        "testbed-4c-2g-true",
        "sha256:154b92536ffd10b467fe4c31e4b5962c8235c8ea19acd15907660373ca847de9",
    ),
    (
        "testbed-8c-0g-false",
        "sha256:3c42fc2583ddfc1229d39e2731d16a2b3de29b2c2bebc75bbf4d2ab6a494e900",
    ),
    (
        "testbed-8c-1g-false",
        "sha256:fcf880f15cab77f1dbcdc42978cef6cd4d9cc6fdb29f5fa70c53362af99f78df",
    ),
    (
        "testbed-8c-2g-false",
        "sha256:1b0d5cc3aa3eceaa65f4c91489c16fe6b1412a3a6f183730f1136881080b44ce",
    ),
    (
        "testbed-8c-2g-true",
        "sha256:501433e97d898594785b13916f92a2648d4f454db942cbd3d63a20d8b5c62f70",
    ),
    (
        "testbed-16c-0g-false",
        "sha256:9f1df81d31f00a7dc7217c98a86b6fd5a8ed9a1e08c80f394b47dd34088e0e02",
    ),
    (
        "testbed-16c-1g-false",
        "sha256:bf195cfc31f99d2a760c16b3b869083ddeac858a2c3ca5e6f65e9d6fab93e0b3",
    ),
    (
        "testbed-16c-2g-false",
        "sha256:bed22652f56ab94ce73dc0623389c6827f71667a80721cd420732365490a40ab",
    ),
    (
        "testbed-16c-2g-true",
        "sha256:12913bdb175895cab3f557a3ae0e076be7adbc600b872aa4bb559ce209fab116",
    ),
];

const EXAMPLE_PINS: [(&str, &str); 3] = [
    (
        "cell_be.xml",
        "sha256:e1cb9da05435f4afe1a9e61f5a44bb31536ed402f31f2bad7b6ba9b6332a7a17",
    ),
    (
        "xeon_2gpu_testbed.xml",
        "sha256:80ca519784bf1e956f84ce4d18cc21d331a7b363d3a63282f6f9bc63931efb12",
    ),
    (
        "xeon_x5550_host.xml",
        "sha256:db56b6f19dc89f186a032a2684bfc8b3fbef0fb30bcb00b09e635b6856f12b19",
    ),
];

#[test]
fn catalog_content_hashes_are_pinned() {
    let got: Vec<(String, String)> = catalog()
        .iter()
        .map(|p| (p.name.to_string(), content_hash(p).to_string()))
        .collect();
    let want: Vec<(String, String)> = CATALOG_PINS
        .iter()
        .map(|&(n, h)| (n.to_string(), h.to_string()))
        .collect();
    assert_eq!(got, want);
}

#[test]
fn example_platform_hashes_are_pinned() {
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/examples/platforms");
    let mut files: Vec<_> = std::fs::read_dir(dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .filter(|p| p.extension().is_some_and(|x| x == "xml"))
        .collect();
    files.sort();
    let got: Vec<(String, String)> = files
        .iter()
        .map(|path| {
            let xml = std::fs::read_to_string(path).unwrap();
            let platform =
                pdl_xml::from_xml(&xml).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
            let file = path.file_name().unwrap().to_string_lossy().into_owned();
            (file, content_hash(&platform).to_string())
        })
        .collect();
    let want: Vec<(String, String)> = EXAMPLE_PINS
        .iter()
        .map(|&(n, h)| (n.to_string(), h.to_string()))
        .collect();
    assert_eq!(got, want);
}
