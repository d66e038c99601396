//! Integration tests for the disjoint-write contract tracker.
//!
//! These live in their own test binary because the tracker is process-global
//! state; unit tests inside the crate run concurrently and would interfere.

use std::sync::{Arc, Mutex};

use ppar_core::shared::{set_current_worker, tracking, SharedGrid, SharedVec};

// The tests below enable, advance and disable the one process-wide tracker,
// so they take turns.
static TRACKER: Mutex<()> = Mutex::new(());

fn panic_message(err: Box<dyn std::any::Any + Send>) -> String {
    format!("{:?}", err.downcast_ref::<String>())
}

#[test]
fn tracker_detects_cross_worker_overlap_and_allows_epochs() {
    let _turn = TRACKER.lock().unwrap_or_else(|e| e.into_inner());
    // Part 1: overlapping writes from different workers panic.
    tracking::enable();
    let v = Arc::new(SharedVec::new(16, 0u64));

    set_current_worker(0);
    v.set(3, 1);

    let v2 = v.clone();
    let result = std::thread::spawn(move || {
        set_current_worker(1);
        // Same index, same epoch, different worker -> contract violation.
        v2.set(3, 2);
    })
    .join();
    assert!(
        result.is_err(),
        "conflicting write from another worker must panic"
    );
    let msg = panic_message(result.unwrap_err());
    assert!(
        msg.contains("disjoint-write contract violation"),
        "unexpected panic message: {msg}"
    );

    // Part 2: same worker rewriting the same index is fine.
    set_current_worker(0);
    v.set(3, 3);

    // Part 3: after an epoch advance (a synchronisation point), another
    // worker may write the index.
    tracking::advance_epoch();
    let v3 = v.clone();
    std::thread::spawn(move || {
        set_current_worker(1);
        v3.set(3, 4);
    })
    .join()
    .expect("write in new epoch must not panic");
    assert_eq!(v.get(3), 4);

    // Part 4: disjoint parallel writes never panic.
    tracking::advance_epoch();
    let threads: Vec<_> = (0..4)
        .map(|w| {
            let v = v.clone();
            std::thread::spawn(move || {
                set_current_worker(w);
                for i in (w..16).step_by(4) {
                    v.set(i, w as u64);
                }
            })
        })
        .collect();
    for t in threads {
        t.join().expect("disjoint writes must not panic");
    }

    tracking::disable();
    assert!(!tracking::enabled());

    // Part 5: with tracking disabled, overlapping writes are not checked
    // (they are still *wrong* under the contract, but undetected; here the
    // two writes are sequenced by join so there is no actual race).
    set_current_worker(0);
    v.set(3, 7);
    std::thread::spawn({
        let v = v.clone();
        move || {
            set_current_worker(1);
            v.set(3, 8);
        }
    })
    .join()
    .unwrap();
    set_current_worker(0);
}

#[test]
fn tracker_detects_overlapping_view_writes() {
    let _turn = TRACKER.lock().unwrap_or_else(|e| e.into_inner());
    tracking::enable();
    tracking::advance_epoch();
    let g = Arc::new(SharedGrid::new(4, 8, 0.0f64));

    // Worker 0 writes row 1 through a write view; worker 1 writes an
    // overlapping range of the flat vector through its own view.
    set_current_worker(0);
    g.row_cells_mut(1).set(5, 1.0);
    let g2 = g.clone();
    let result = std::thread::spawn(move || {
        set_current_worker(1);
        g2.flat().cells_mut(12..16).set(1, 2.0); // flat index 13 = (1, 5)
    })
    .join();
    set_current_worker(0);
    tracking::disable();
    let msg = panic_message(result.expect_err("overlapping view write must panic"));
    assert!(
        msg.contains("disjoint-write contract violation") && msg.contains("index 13"),
        "unexpected panic message: {msg}"
    );
}

#[test]
fn tracker_allows_disjoint_view_writes_and_new_epochs() {
    let _turn = TRACKER.lock().unwrap_or_else(|e| e.into_inner());
    tracking::enable();
    tracking::advance_epoch();
    let g = Arc::new(SharedGrid::new(4, 8, 0u64));

    // Disjoint: each worker writes its own row, and every cell of it.
    let threads: Vec<_> = (0..4)
        .map(|w| {
            let g = g.clone();
            std::thread::spawn(move || {
                set_current_worker(w);
                let row = g.row_cells_mut(w);
                for j in 0..row.len() {
                    row.set(j, w as u64);
                }
            })
        })
        .collect();
    for t in threads {
        t.join().expect("disjoint view writes must not panic");
    }

    // After a synchronisation point another worker may rewrite a row.
    tracking::advance_epoch();
    let g2 = g.clone();
    std::thread::spawn(move || {
        set_current_worker(1);
        g2.row_cells_mut(0).set(3, 9);
    })
    .join()
    .expect("view write in a new epoch must not panic");
    set_current_worker(0);
    tracking::disable();
    assert_eq!(g.get(0, 3), 9);
    assert_eq!(g.get(3, 7), 3);
}
