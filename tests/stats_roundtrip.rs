//! Wire-level STATS acceptance: a netsim service serving a sharded
//! Wormhole answers a `WireRequest::Stats` probe with a text exposition
//! that carries at least one counter from every instrumented crate —
//! `wormhole`, `wh-epoch`, `wh-shard`, `wh-durable`, and `netsim` itself.

use std::sync::Arc;

use wormhole_repro::durable::DurableWormhole;
use wormhole_repro::netsim::{ShardServer, WireRequest};
use wormhole_repro::sharded::ShardedWormhole;
use wormhole_repro::traits::ConcurrentOrderedIndex;

fn parse_counter(exposition: &str, name: &str) -> Option<u64> {
    exposition.lines().find_map(|line| {
        let (n, v) = line.split_once(' ')?;
        (n == name).then(|| v.parse().ok())?
    })
}

#[test]
fn stats_exposition_covers_every_instrumented_crate() {
    let dir = std::env::temp_dir().join(format!("wh-stats-roundtrip-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);

    // A sharded front (which itself aggregates wormhole + epoch metrics)
    // behind the simulated service, plus a durable index registered into
    // the same registry so its WAL metrics ride the same exposition.
    let sharded: Arc<ShardedWormhole<u64>> = Arc::new(ShardedWormhole::new(4));
    let durable: DurableWormhole<u64> = DurableWormhole::open(&dir).unwrap();
    for i in 0..2000u64 {
        sharded.set(format!("key-{i:08}").as_bytes(), i);
    }
    for i in 0..32u64 {
        durable.set(format!("wal-{i:04}").as_bytes(), i);
    }

    let service = ShardServer::with_batch_size(sharded.clone(), 1, 256);
    sharded.register_metrics(service.registry(), "wh_shard");
    durable.register_metrics(service.registry(), "wh_durable");
    service
        .registry()
        .lint()
        .expect("full-stack metric names well-formed and unique");

    // Mix the probe into ordinary traffic: lookups first, then Stats in
    // the same request stream, all over the wire.
    let mut requests: Vec<WireRequest> = (0..500u64)
        .map(|i| WireRequest::Get {
            key: format!("key-{:08}", i * 3 % 2000).into_bytes(),
        })
        .collect();
    requests.push(WireRequest::Stats);
    let stats = service.run(&requests);
    assert_eq!(stats.operations, 501);

    let text = service.fetch_stats();
    // ≥1 counter from each of the five instrumented crates, with the
    // values the exposition should plausibly carry.
    let netsim_requests =
        parse_counter(&text, "netsim_requests_total").expect("netsim counter present");
    assert!(netsim_requests >= 501, "service saw the wire traffic");
    let shard_ops: u64 = (0..4)
        .map(|i| parse_counter(&text, &format!("wh_shard_shard{i}_ops_total")).unwrap_or(0))
        .sum();
    assert!(shard_ops >= 2500, "per-shard op counters cover sets + gets");
    let splits =
        parse_counter(&text, "wh_shard_wormhole_splits_total").expect("wormhole counter present");
    assert!(splits > 0, "2000 inserts split leaves");
    assert!(
        parse_counter(&text, "wh_shard_router_epoch_section_entries_total").is_some(),
        "epoch counter present"
    );
    let fsyncs = parse_counter(&text, "wh_durable_fsyncs_total").expect("durable counter present");
    assert!(fsyncs > 0, "durable sets fsynced");

    std::fs::remove_dir_all(&dir).unwrap();
}
