//! Golden digests of the µop streams every catalog application emits.
//!
//! Each digest is the 64-bit FNV-1a of the SPBT encoding (the
//! `spbsim record` record format, header excluded) of the first
//! [`OPS`] µops of one trace source at seed 42: every application ×
//! every thread id, plus thread 0 of every application under one squash
//! configuration. Any change to what a generator emits, to the order
//! its RNG is drawn in, or to how phases and wrong-path runs are
//! spliced changes a digest here — directly, instead of only through
//! the cycle counts of the golden grid.
//!
//! After an intended stream change, the failure message prints the
//! whole table as it now stands, ready to paste over [`GOLDEN`].

use spb_trace::file::TraceWriter;
use spb_trace::profile::AppCatalog;
use spb_trace::{SquashConfig, SquashInjector, TraceSource};

/// µops digested per stream.
const OPS: u64 = 100_000;
/// Trace seed of every stream.
const SEED: u64 = 42;
/// The one squash configuration digested (thread 0 of every app).
const SQUASH: &str = "rate=0.05,depth=4..24,storm=2,seed=9";

/// 64-bit FNV-1a.
fn fnv1a64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Digest of the SPBT records of the first [`OPS`] µops of `src`.
fn digest(src: &mut impl TraceSource) -> u64 {
    let mut encoded = Vec::new();
    let mut w = TraceWriter::new(&mut encoded);
    for _ in 0..OPS {
        let op = src.next_op().expect("catalog workloads are unbounded");
        w.write_op(&op).unwrap();
    }
    w.finish().unwrap();
    // Skip the 16-byte header: it only restates the count.
    fnv1a64(&encoded[16..])
}

/// `(app, thread, squash?, digest)` for every stream, in catalog order.
fn actual() -> Vec<(String, u32, bool, u64)> {
    let squash = SquashConfig::parse(SQUASH).unwrap();
    let mut rows = Vec::new();
    for app in AppCatalog::standard().all() {
        for (t, mut src) in app.build_threads(SEED).into_iter().enumerate() {
            rows.push((app.name().to_string(), t as u32, false, digest(&mut src)));
        }
        let mut src = SquashInjector::new(app.build(SEED), squash, 0);
        rows.push((app.name().to_string(), 0, true, digest(&mut src)));
    }
    rows
}

#[test]
fn catalog_streams_match_their_golden_digests() {
    let rows = actual();
    let table: String = rows
        .iter()
        .map(|(app, t, sq, d)| format!("    ({app:?}, {t}, {sq}, {d:#018x}),\n"))
        .collect();
    let expected: Vec<(String, u32, bool, u64)> = GOLDEN
        .iter()
        .map(|&(a, t, s, d)| (a.to_string(), t, s, d))
        .collect();
    assert!(
        rows == expected,
        "trace streams changed; the table now reads:\n{table}"
    );
}

/// `(app, thread, squash?, digest)`.
const GOLDEN: &[(&str, u32, bool, u64)] = &[
    ("bwaves", 0, false, 0x7af53f15aea75fa4),
    ("bwaves", 0, true, 0x0601884c8b97bbcb),
    ("cactuBSSN", 0, false, 0x4cb443afe7e3a995),
    ("cactuBSSN", 0, true, 0x687970cafb66b5f2),
    ("x264", 0, false, 0x510e1f74c5fed91b),
    ("x264", 0, true, 0xe12b3682191cb390),
    ("blender", 0, false, 0x5893390f3aba0425),
    ("blender", 0, true, 0xdd0fadd7a287327f),
    ("cam4", 0, false, 0x573e0b37c6a5366e),
    ("cam4", 0, true, 0x8f04e3f578e29ae7),
    ("deepsjeng", 0, false, 0xdb8039d1e4c242e0),
    ("deepsjeng", 0, true, 0x3e013cf3502b4165),
    ("fotonik3d", 0, false, 0x456988cc48cc154d),
    ("fotonik3d", 0, true, 0xc1d02ea3353c08e6),
    ("roms", 0, false, 0x1e59bd563f792566),
    ("roms", 0, true, 0x18a765182c13cd4e),
    ("perlbench", 0, false, 0x70007137b4e5933d),
    ("perlbench", 0, true, 0xe0f7534dcfc59393),
    ("gcc", 0, false, 0xd21a4e902bb37541),
    ("gcc", 0, true, 0xc673e7b1ffa3d6e6),
    ("mcf", 0, false, 0x64123066bfad8da9),
    ("mcf", 0, true, 0xc66a779fccdf9068),
    ("omnetpp", 0, false, 0xca87763c431f3139),
    ("omnetpp", 0, true, 0xfaaca6e0e19d0527),
    ("xalancbmk", 0, false, 0xc65d7a315b0c0eb3),
    ("xalancbmk", 0, true, 0x633ed4c060fef5e4),
    ("exchange2", 0, false, 0xc975c03612e6323d),
    ("exchange2", 0, true, 0xbf5e619f27b3c909),
    ("xz", 0, false, 0xbcfff57d43763061),
    ("xz", 0, true, 0x158caedf1151b062),
    ("leela", 0, false, 0xa6229966d3df6d76),
    ("leela", 0, true, 0xafe15725df60787c),
    ("namd", 0, false, 0x257da2794e906691),
    ("namd", 0, true, 0x32ce4ff33b3e53d1),
    ("parest", 0, false, 0x4c6fb56975f08a08),
    ("parest", 0, true, 0x9d99b50005c922c4),
    ("povray", 0, false, 0x69f288c0fa132518),
    ("povray", 0, true, 0x09b6bd1b5f6f0cc0),
    ("lbm", 0, false, 0x8b1899ab3af64de1),
    ("lbm", 0, true, 0xc29976aafbc09ccc),
    ("wrf", 0, false, 0x086a613bbe3766f6),
    ("wrf", 0, true, 0x4549a24244239dec),
    ("imagick", 0, false, 0xd19b61a33b3535b4),
    ("imagick", 0, true, 0x612903c9cc1ae30b),
    ("nab", 0, false, 0x8b5b048138e6266f),
    ("nab", 0, true, 0x462568fd1ea3f7a4),
    ("bodytrack", 0, false, 0xcd4dc9320621ecd7),
    ("bodytrack", 1, false, 0x37ff3de216529097),
    ("bodytrack", 2, false, 0xca1b10729f488f87),
    ("bodytrack", 3, false, 0x902a5f6bc676c5cb),
    ("bodytrack", 4, false, 0xcbfe9d7c866fa7ba),
    ("bodytrack", 5, false, 0x2d0b232974c7aa24),
    ("bodytrack", 6, false, 0xf652fa02194b4e9f),
    ("bodytrack", 7, false, 0x34d76da3a5c82948),
    ("bodytrack", 0, true, 0xa43ac3f97f6989e0),
    ("dedup", 0, false, 0x61e2fd890da11dc5),
    ("dedup", 1, false, 0x5fc9c0dd32dfb6fc),
    ("dedup", 2, false, 0xe0a5476e0412411f),
    ("dedup", 3, false, 0x4e46d00a38da5890),
    ("dedup", 4, false, 0x000f8efcf2e84033),
    ("dedup", 5, false, 0xd847ab95b39e0afa),
    ("dedup", 6, false, 0xff5b701b9daa1df7),
    ("dedup", 7, false, 0x4534c8b17f3709aa),
    ("dedup", 0, true, 0x9674242983895e7b),
    ("ferret", 0, false, 0xc205e48ae17b34f8),
    ("ferret", 1, false, 0xc3364f87e789d509),
    ("ferret", 2, false, 0x636128e045a09d12),
    ("ferret", 3, false, 0xe1dfd2c2789c6e24),
    ("ferret", 4, false, 0x76f4730e3600155f),
    ("ferret", 5, false, 0xe51ee143432ef1e3),
    ("ferret", 6, false, 0x003378dcd9182c8a),
    ("ferret", 7, false, 0x125f3628f8c84504),
    ("ferret", 0, true, 0x2f7a974ab764db87),
    ("x264", 0, false, 0x4dff5bce8522b87e),
    ("x264", 1, false, 0x98505ca9c4389bbf),
    ("x264", 2, false, 0x8c002e7f8492be33),
    ("x264", 3, false, 0xb35038baf26e0d2c),
    ("x264", 4, false, 0x5bc238015b32d18e),
    ("x264", 5, false, 0x14186154ace372ae),
    ("x264", 6, false, 0x747333708320fb77),
    ("x264", 7, false, 0xb231ab7cabbfab88),
    ("x264", 0, true, 0x7554348b6de240b1),
    ("blackscholes", 0, false, 0x102ab67cdb3298bd),
    ("blackscholes", 1, false, 0x1829bf606b9009cc),
    ("blackscholes", 2, false, 0xe3f9524be0f74c40),
    ("blackscholes", 3, false, 0x66cb9a3ec04f3d2e),
    ("blackscholes", 4, false, 0x30a74ae4afcc6de8),
    ("blackscholes", 5, false, 0x4cb1777fc082e486),
    ("blackscholes", 6, false, 0xd4623f862ac77523),
    ("blackscholes", 7, false, 0xe8d899b5c3f943ca),
    ("blackscholes", 0, true, 0xf919d7ce1867415e),
    ("canneal", 0, false, 0x8050653c78371628),
    ("canneal", 1, false, 0x947c9e74cec39b3c),
    ("canneal", 2, false, 0xbf6de3dca62e0353),
    ("canneal", 3, false, 0x3e82d95aa48337c8),
    ("canneal", 4, false, 0x734b12f5d66d93d1),
    ("canneal", 5, false, 0xd56b6a3e8941bb7b),
    ("canneal", 6, false, 0x4db41fb222d0a478),
    ("canneal", 7, false, 0x6df289ca851faefa),
    ("canneal", 0, true, 0x6a11d418a356c61e),
    ("facesim", 0, false, 0x8d16b2838d08a167),
    ("facesim", 1, false, 0x84af4b37c6ec0185),
    ("facesim", 2, false, 0x5262db9b60a276cc),
    ("facesim", 3, false, 0x31d350ffbef76298),
    ("facesim", 4, false, 0x59d0851556556675),
    ("facesim", 5, false, 0x310067b82125882f),
    ("facesim", 6, false, 0x96eddbbd05a2f14d),
    ("facesim", 7, false, 0x90c06f68b4a275d6),
    ("facesim", 0, true, 0xc76aa57c1d0a1838),
    ("fluidanimate", 0, false, 0xfce01b083a20d218),
    ("fluidanimate", 1, false, 0xae0000d138002808),
    ("fluidanimate", 2, false, 0xaccf7f8cd89b8dce),
    ("fluidanimate", 3, false, 0x879876c9ae7f7310),
    ("fluidanimate", 4, false, 0x4fe3778625e60d06),
    ("fluidanimate", 5, false, 0xbdcd477726c74381),
    ("fluidanimate", 6, false, 0x2ea07c7f980852e8),
    ("fluidanimate", 7, false, 0x2b57cd8f83271cc0),
    ("fluidanimate", 0, true, 0x5d997c8298823ad7),
    ("streamcluster", 0, false, 0xca85db0e928aed16),
    ("streamcluster", 1, false, 0x5ed1ceaab71519a8),
    ("streamcluster", 2, false, 0xddd8d850f4d0753c),
    ("streamcluster", 3, false, 0x1a5b4327910bf5ae),
    ("streamcluster", 4, false, 0x6769e955b9b71ac6),
    ("streamcluster", 5, false, 0x4dee2e31f2386ea1),
    ("streamcluster", 6, false, 0x5075a69966aea1b3),
    ("streamcluster", 7, false, 0xa83034edd262cc15),
    ("streamcluster", 0, true, 0x269fc2ea0fe26196),
    ("swaptions", 0, false, 0x04de779b96a70412),
    ("swaptions", 1, false, 0xe8fa59f46922aaf3),
    ("swaptions", 2, false, 0x878f5b35b004e8cf),
    ("swaptions", 3, false, 0xe0e9ff5999267cd8),
    ("swaptions", 4, false, 0x7797f35d0adee8b4),
    ("swaptions", 5, false, 0x434bd1a29d06cca6),
    ("swaptions", 6, false, 0x14881f3a19e7e8aa),
    ("swaptions", 7, false, 0x52b264943329675f),
    ("swaptions", 0, true, 0xd89a6c6e247c61bc),
    ("vips", 0, false, 0x6b745d5f473fa0f5),
    ("vips", 1, false, 0xa5366b661b246a33),
    ("vips", 2, false, 0x8f7c7c0ceb963e9e),
    ("vips", 3, false, 0xa1b89ecd5a406e97),
    ("vips", 4, false, 0xdf135f0dcd213b3e),
    ("vips", 5, false, 0xd909b112a45d384f),
    ("vips", 6, false, 0x5581abe583d0c072),
    ("vips", 7, false, 0x49cb9d92b631d531),
    ("vips", 0, true, 0x1f00d739edd37d05),
];
