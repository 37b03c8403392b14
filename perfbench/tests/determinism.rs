//! The benchmark's inputs and exact counts are a function of the seed.
//!
//! Each workload runs twice on one seed and once on another, at a small
//! corpus scale and a fixed number of rounds: the same seed must give the
//! same input digest and exactly the same counts (stored bytes per input
//! byte, segments scanned and skipped, candidates scored, rows out,
//! links per document), with every check passing; another seed must give
//! another digest.

use impliance_perfbench::{run, Budget, Opts, Report, WORKLOADS};

fn small(workload: &str, seed: u64) -> Report {
    let opts = Opts {
        seed,
        budget: Budget::Rounds(3),
        trace: false,
        scale: 0.05,
        setup_reps: 1,
    };
    run(workload, &opts).expect("known workload")
}

#[test]
fn same_seed_gives_same_inputs_and_counts() {
    for w in WORKLOADS {
        let a = small(w, 7);
        let b = small(w, 7);
        assert!(a.attempted > 0, "{w}: nothing attempted");
        assert_eq!(a.failed, 0, "{w}: oracle checks failed");
        assert_eq!(a.digest, b.digest, "{w}: input digest differs");
        assert_eq!(a.counts, b.counts, "{w}: counts differ");
        for key in ["stored_bytes_per_input_byte", "query.rows_out"] {
            assert!(a.counts.iter().any(|(k, _)| *k == key), "{w}: no {key}");
        }
    }
}

#[test]
fn another_seed_gives_other_inputs() {
    for w in WORKLOADS {
        assert_ne!(
            small(w, 7).digest,
            small(w, 8).digest,
            "{w}: digest ignores the seed"
        );
    }
}

#[test]
fn unknown_workload_is_refused() {
    assert!(run(
        "nonesuch",
        &Opts {
            seed: 1,
            budget: Budget::Rounds(1),
            trace: false,
            scale: 0.05,
            setup_reps: 1,
        }
    )
    .is_none());
}
