//! Tests of the multi-tenant serving layer through its public API: session
//! lookup and priority weights. Token-bucket admission and weighted-fair
//! flushing are crate-private; their property tests live beside them.

use std::collections::BTreeMap;

use a3_core::serve::{Priority, SessionId};
use proptest::prelude::*;

proptest! {
    /// Session lookup is observationally equivalent to a flat `BTreeMap` over
    /// arbitrary register/lookup traces: same lookups, same length, same
    /// id-ordered iteration.
    #[test]
    fn session_lookup_matches_a_flat_map(
        ops in prop::collection::vec((0u64..40, 0u32..10), 1..200),
    ) {
        // Session handles are only constructible through a server; model the
        // equivalence on the id set by driving register against a flat shadow map.
        use a3_core::backend::ExactBackend;
        use a3_core::serve::{AttentionServer, MemoryConfig};
        use a3_core::Matrix;

        let keys = Matrix::from_rows(vec![vec![1.0, 0.0], vec![0.0, 1.0]]).unwrap();
        let mut server = AttentionServer::builder(Box::new(ExactBackend)).build();
        let mut flat: BTreeMap<u64, ()> = BTreeMap::new();
        let mut issued: Vec<SessionId> = Vec::new();
        for (pick, coin) in ops {
            // ~70% inserts, 30% probes.
            if coin < 7 || issued.is_empty() {
                let id = server.register(MemoryConfig::new(&keys, &keys)).unwrap();
                flat.insert(id.raw(), ());
                issued.push(id);
            } else {
                // Lookup of an arbitrary (possibly never-issued) id must agree
                // with the flat map.
                let probe = SessionId::from_raw(pick);
                prop_assert_eq!(server.session(probe).is_some(), flat.contains_key(&pick));
            }
        }
        let iterated: Vec<u64> = server.sessions().map(|h| h.id().raw()).collect();
        let flat_ids: Vec<u64> = flat.keys().copied().collect();
        prop_assert_eq!(iterated, flat_ids);
        // Every issued id resolves.
        for id in issued {
            prop_assert!(server.session(id).is_some());
        }
    }
}

#[test]
fn priority_weights_are_monotone() {
    assert!(Priority::High.weight() > Priority::Normal.weight());
    assert!(Priority::Normal.weight() > Priority::Background.weight());
    assert_eq!(Priority::default(), Priority::Normal);
}
