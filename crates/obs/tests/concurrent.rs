//! The registry is per thread: what a spawned thread records stays in that
//! thread's registry and never reaches the spawner's snapshot, even with the
//! layer enabled on both.

use wavesched_obs as obs;

fn counter(snap: &[obs::Metric], want: &str) -> Option<u64> {
    snap.iter().find_map(|m| match m {
        obs::Metric::Counter { name, value } if name == want => Some(*value),
        _ => None,
    })
}

#[test]
fn a_spawned_threads_recordings_never_reach_the_spawners_snapshot() {
    obs::set_enabled(true);
    obs::counter_add("spawner", 1);
    let before = obs::recordings();
    let child = std::thread::spawn(|| {
        // A new thread starts disabled: this call records nothing anywhere.
        assert!(!obs::enabled());
        obs::counter_add("child.disabled", 1);
        obs::set_enabled(true);
        obs::counter_add("child", 2);
        obs::record("child.hist", 5);
        drop(obs::span("child_span"));
        (obs::snapshot(), obs::recordings())
    });
    let (child_snap, child_recordings) = child.join().expect("child thread");
    assert_eq!(child_recordings, 3, "the child counts its own recordings");
    assert_eq!(counter(&child_snap, "child"), Some(2));
    assert_eq!(counter(&child_snap, "child.disabled"), None);
    assert_eq!(counter(&child_snap, "spawner"), None);

    let snap = obs::snapshot();
    assert_eq!(
        snap,
        vec![obs::Metric::Counter {
            name: "spawner".into(),
            value: 1
        }],
        "only the spawner's own recording is in its snapshot"
    );
    assert_eq!(
        obs::recordings(),
        before,
        "the child's recordings are its own"
    );
    assert_eq!(obs::render_span_tree(), "(no spans recorded)\n");
    obs::set_enabled(false);
    obs::reset();
}
