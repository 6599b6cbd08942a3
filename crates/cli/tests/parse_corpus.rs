//! Golden parses of the `spbsim` command line.
//!
//! Each row pairs one argv (split on spaces) with the 64-bit FNV-1a of
//! `format!("{:?}", parse(argv))` and, for run-like commands, of
//! `format!("{:?}", cfg.to_sim_config())`, the input of every serve and
//! tune cache key. The argvs are those of the parser's unit tests plus
//! every USAGE synopsis with sample values, errors included. A failure
//! prints the table as it now stands, ready to paste over [`GOLDEN`]
//! after an intended change.

use spb_cli::{parse, Command, VerifyCmd};
use spb_stats::hash::fnv1a64;

#[test]
fn every_argv_parses_to_its_golden_digest() {
    let digest = |v: &dyn std::fmt::Debug| fnv1a64(format!("{v:?}").as_bytes());
    let (mut table, mut changed) = (String::new(), Vec::new());
    for &(argv, golden, golden_cfg) in GOLDEN {
        let parsed = parse(argv.split_whitespace());
        let cfg = match &parsed {
            Ok(
                Command::Run { cfg, .. }
                | Command::Suite { cfg, .. }
                | Command::Replay { cfg, .. }
                | Command::Sweep { cfg, .. }
                | Command::Trace { cfg, .. }
                | Command::Verify(VerifyCmd::Oracle { cfg, .. }),
            ) => Some(digest(&cfg.to_sim_config())),
            _ => None,
        };
        let cfg_hex = cfg.map_or("None".into(), |d| format!("Some({d:#018x})"));
        table += &format!("    ({argv:?}, {:#018x}, {cfg_hex}),\n", digest(&parsed));
        if (digest(&parsed), cfg) != (golden, golden_cfg) {
            changed.push(format!("{argv:?} -> {parsed:?}"));
        }
    }
    let changed = changed.join("\n");
    assert!(
        changed.is_empty(),
        "argvs changed meaning:\n{changed}\nthe table now reads:\n{table}"
    );
}

/// `(argv, parse digest, SimConfig digest)`.
const GOLDEN: &[(&str, u64, Option<u64>)] = &[
    ("", 0x1530ca273dfced49, None),
    ("apps", 0x6854c285161a3d6c, None),
    ("frobnicate", 0xd69915efe6cc4515, None),
    ("run --app x264 --kernel warp", 0x7482c19c1feaf023, None),
    ("run --app x264 --policy spb --sb 14 --uops 5000 --warmup 1000 --seed 7 --jobs 2 --fault-rate 0.01 --fault-seed 3 --kernel tick --squash rate=0.05,depth=8..32 --chart", 0xaed64422059d0d75, Some(0x7204faef815e0552)),
    ("run --app x264 --policy spb:n=32,dedupe=off,burst=3", 0x278f917ef1909e2f, Some(0xa146d7ca923969ca)),
    ("run --app x264 --squash rate=0.05,depth=8..32,storm=4,seed=7", 0x60d504d31c67e7ed, Some(0x5552b38a71cb3766)),
    ("run --app x264 --squash rate=2", 0x121e69fb5d46936c, None),
    ("run --app x264", 0x78190c943b0f8374, Some(0x7d3b1101bac36675)),
    ("run --app gcc --fault-rate 0.02 --fault-seed 9", 0x61ed68e88d08d061, Some(0x1594aa818939aa4e)),
    ("run --app gcc --jobs many", 0xcbcc5d34db457ff9, None),
    ("run --app x --sb lots", 0x2e1f962891231179, None),
    ("run --sb 14", 0xcb7417574dadc52d, None),
    ("suite", 0x08a976e5209223f6, Some(0x7d3b1101bac36675)),
    ("suite --suite parsec --policy at-commit --sb 28", 0xccd90028d8be458c, Some(0xb2dbc61c5a164226)),
    ("record --app x264 --ops 100000 --out x264.spbt --seed 9", 0x39d940ca9063c664, None),
    ("record --out x264.spbt", 0x8bcd30d4d95b0ea9, None),
    ("trace-info x264.spbt", 0x91251a885e885eb9, None),
    ("replay --trace x264.spbt --policy spb --sb 14", 0x89a25b0f5fef0486, Some(0xd9dee2bb23c48373)),
    ("sweep --app x264 --sb 8,16 --policy spb,ideal", 0xba5026c142167ae3, Some(0x7d3b1101bac36675)),
    ("sweep --app x264 --squash rate=0.1 --kernel tick --uops 5000 --jobs 2 --sb 14,28", 0xe7c972118013ad70, Some(0x209781f0ec47b3c5)),
    ("sweep --app x264 --uops lots", 0x869974b26a410b51, None),
    ("sweep --app x264 --resume --fault-rate 0.01", 0xf7e7ad012afda0b4, Some(0x5552c845362915e0)),
    ("sweep --app x264", 0x12a3b3483eed0724, Some(0x7d3b1101bac36675)),
    ("sweep --app x264 --retry 0", 0x0ed677e0c6bcd4fb, None),
    ("sweep --app x264 --sb 14,20 --policy at-commit,spb --chart --resume --retry 2 --jobs 2", 0x101d7725ae1df2ab, Some(0x7d3b1101bac36675)),
    ("trace --app x264 --policy spb", 0x5b4627ddf9986da3, Some(0x7b0ebd477e3a9e02)),
    ("trace --app gcc --out g.json --uops 5000", 0xe5e507713acf9310, Some(0xe362aeace0d17b9e)),
    ("experiment fig05 --quick", 0xf5dcdde93d9c00f6, None),
    ("experiment fig05 --qiuck", 0x5093ad933e448b7e, None),
    ("experiment", 0x90511f52caea33bd, None),
    ("squash --quick", 0x069e009e05636e42, None),
    ("verify", 0x938352b3e4ea91a1, None),
    ("verify shake", 0x128f45639e5d21a6, None),
    ("verify fuzz --seed 7 --steps 512 --cores 2 --fault-rate-e4 250 --mutate-at 100 --count 4", 0x10d70b5a2837711a, None),
    ("verify fuzz --seed 11 --squash --spec-mutate-at 64", 0xd40ac9c4862fed9d, None),
    ("verify oracle", 0x748b39ee32d5a145, None),
    ("verify oracle --app x264 --sb 14", 0x184906aff01fffe0, Some(0x413da1c609ba4ca3)),
    ("serve", 0x17406d20a7d34dfb, None),
    ("serve --addr 127.0.0.1:0 --dir /tmp/state --jobs 2 --queue 1 --retry 5 --deadline-ms 1000", 0x4f4c366410de5dab, None),
    ("client", 0x5f48f3a2aa62f71d, None),
    ("client warp", 0xe573a5761c396cda, None),
    ("client health --addr example:9", 0xea7f137e44a24cf3, None),
    ("client sweep", 0x3cb157b073acc5fc, None),
    ("client sweep --app x264,gcc --policy spb --sb 14,56 --retry 3 --name mini --out r.json", 0xe7f662ed28d91d54, None),
    ("client sweep --addr h:1 --app x264 --sb 14 --budget paper --retry 2", 0x823b2f5101a4d884, None),
    ("client sweep --policy spb", 0x260e71b5511389cf, None),
    ("bench", 0x342038ca3ba92d6a, None),
    ("bench --baseline BENCH_PR9.json", 0x342038ca3ba92d6a, None),
    ("bench --baseline b.json --kernel event --samples 5", 0x342038ca3ba92d6a, None),
    ("tune", 0xb6ed070871df487d, None),
    ("tune --strategy halving --seed 7 --points 200 --apps sb-bound --sb 14,56 --budget paper --warmup 5000 --uops 20000 --cache /tmp/c --out /tmp/r --name t --jobs 2 --retry 4", 0xac55d9c1b5c99578, None),
    ("tune --frobnicate", 0x0ad2a05334213340, None),
];
