//! Overload behavior of the *live* service stack: stale-frame coalescing
//! under a request burst, per-user admission caps, bounded batch deferral,
//! and the TCP boundary's `Overloaded` path with client-side retry.
//!
//! Timing note: the head's cycles land on the ω grid of its wall clock,
//! wherever the submitting thread happens to be, so a test that relies
//! on "these requests land in the same cycle" uses a wide cycle
//! (hundreds of ms) against a burst submitted in microseconds — the same
//! construction as the sim/service parity tests.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;
use vizsched_core::prelude::*;
use vizsched_integration::parity::{frame, Pair};
use vizsched_metrics::{DropReason, NoopProbe, RejectReason};
use vizsched_service::{
    ClientOptions, OverloadPolicy, RemoteClient, RenderOutcome, RenderReply, RenderRequest,
    ServiceClient, ServiceStats, TcpServer, VizService, WireResponse,
};

const WIDE_CYCLE: SimDuration = SimDuration::from_millis(300);

/// Run `drive` against a policed live service over the rig's two small
/// datasets, which each brick into exactly one chunk per node (one
/// interactive job occupies every node, which is what makes the ε gate
/// defer a cold batch deterministically). Unlike the parity files, the
/// store runs unthrottled and the nodes keep the service's default quota.
fn policed(overload: OverloadPolicy, drive: impl FnOnce(&VizService)) -> ServiceStats {
    let rig = Pair {
        mem_quota: 256 << 20,
        throttle: None,
        cycle: WIDE_CYCLE,
        overload,
        ..Pair::default()
    }
    .open();
    rig.live(Arc::new(NoopProbe), drive)
}

fn recv(rx: &crossbeam::channel::Receiver<RenderReply>, what: &str) -> RenderReply {
    rx.recv_timeout(Duration::from_secs(60))
        .unwrap_or_else(|e| panic!("{what}: no reply: {e}"))
}

/// A burst of same-action frames inside one cycle: only the newest
/// renders, every older one is superseded; a batch submitted alongside is
/// exempt from coalescing, gets deferred by the ε gate, escalates under
/// the zero anti-starvation age, and completes with a bounded start delay.
#[test]
fn burst_coalesces_stale_frames_and_admitted_batch_completes() {
    let policy = OverloadPolicy {
        coalesce_interactive: true,
        batch_escalation_age: Some(SimDuration::ZERO),
        ..OverloadPolicy::default()
    };
    let stats = policed(policy, |service| {
        let user = ServiceClient::new(UserId(0), service.request_sender());
        let batch_user = ServiceClient::new(UserId(1), service.request_sender());

        // Six frames of one camera drag, submitted without waiting — far
        // faster than any cycle. Then a three-frame batch over the other
        // (cold) dataset.
        let receivers: Vec<_> = (0..6)
            .map(|i| user.render_interactive(ActionId(0), DatasetId(0), frame(0.1 * i as f32)))
            .collect();
        let batch_frames: Vec<FrameParams> = (0..3).map(|i| frame(1.0 + 0.2 * i as f32)).collect();
        let batch_rx = batch_user.render_batch(BatchId(0), DatasetId(1), &batch_frames);

        let replies: Vec<RenderReply> = receivers
            .iter()
            .map(|rx| recv(rx, "interactive burst"))
            .collect();
        for (i, reply) in replies.iter().enumerate().take(5) {
            assert!(
                matches!(
                    reply.outcome,
                    RenderOutcome::Dropped(DropReason::Superseded)
                ),
                "frame {i} should be superseded, got {:?}",
                reply.outcome
            );
        }
        replies[5].clone().expect_frame();
        for _ in 0..batch_frames.len() {
            recv(&batch_rx, "batch frame").expect_frame();
        }
    });
    assert_eq!(stats.overload.admitted, 9, "6 interactive + 3 batch");
    assert_eq!(stats.overload.coalesced, 5);
    assert_eq!(stats.overload.rejected, 0);
    assert_eq!(stats.overload.expired, 0);
    assert_eq!(
        stats.overload.escalated, 3,
        "the cold batch defers behind the interactive pass, then the zero \
         age escalates all three jobs"
    );
    assert_eq!(stats.jobs_completed, 4, "1 surviving frame + 3 batch");

    // Admission is a promise: every admitted batch job completes, and its
    // start delay is bounded by the escalation age (zero) plus a few
    // cycles of dispatch slack on the wall clock.
    let bound = SimDuration::from_millis(5 * 300);
    for job in stats.record.batch_jobs() {
        assert!(job.is_complete(), "batch job {:?} incomplete", job.id);
        let start = job.timing.start.expect("batch job started");
        let delay = start - job.timing.issue;
        assert!(
            delay <= bound,
            "batch job {:?} start delay {} exceeds bound {}",
            job.id,
            delay,
            bound
        );
    }
}

/// Per-user caps shed the flooding user's excess frames without touching
/// a well-behaved neighbor.
#[test]
fn per_user_cap_rejects_the_flooder_not_the_neighbor() {
    let policy = OverloadPolicy {
        max_per_user: Some(2),
        ..OverloadPolicy::default()
    };
    let stats = policed(policy, |service| {
        let flooder = ServiceClient::new(UserId(0), service.request_sender());
        let neighbor = ServiceClient::new(UserId(1), service.request_sender());

        // Ten frames of *distinct* actions (so coalescing can't thin them)
        // from one user, then a single frame from another user, all inside
        // one wide cycle.
        let flood: Vec<_> = (0..10)
            .map(|i| flooder.render_interactive(ActionId(i), DatasetId(0), frame(0.1 * i as f32)))
            .collect();
        let neighbor_rx = neighbor.render_interactive(ActionId(100), DatasetId(1), frame(0.9));

        let replies: Vec<RenderReply> = flood.iter().map(|rx| recv(rx, "flood")).collect();
        for (i, reply) in replies.iter().enumerate() {
            if i < 2 {
                assert!(
                    matches!(reply.outcome, RenderOutcome::Frame(_)),
                    "frame {i} is under the cap, got {:?}",
                    reply.outcome
                );
            } else {
                assert!(
                    matches!(
                        reply.outcome,
                        RenderOutcome::Rejected(RejectReason::UserCap)
                    ),
                    "frame {i} is over the cap, got {:?}",
                    reply.outcome
                );
            }
        }
        recv(&neighbor_rx, "neighbor frame").expect_frame();
    });
    assert_eq!(stats.overload.admitted, 3);
    assert_eq!(stats.overload.rejected, 8);
    assert_eq!(stats.jobs_completed, 3);
}

/// The TCP boundary: a full admission queue answers `Overloaded
/// (QueueFull)` instead of blocking the socket, and the client-side retry
/// helper surfaces the verdict once its retries are exhausted. The server
/// feeds a one-slot queue that nothing drains, so the outcome is
/// deterministic.
#[test]
fn tcp_boundary_answers_queue_full_when_admission_queue_is_full() {
    let (tx, rx) = crossbeam::channel::bounded(1);
    let server = TcpServer::start("127.0.0.1:0", tx).expect("bind");
    let client =
        RemoteClient::connect_with(server.addr(), UserId(0), ClientOptions::new().retries(2))
            .expect("connect");

    // The first request occupies the single queue slot (nobody serves
    // it); the second must be refused at the boundary.
    let _parked = client
        .render_interactive(ActionId(0), DatasetId(0), frame(0.1))
        .expect("submit");
    let refused = client
        .render_interactive(ActionId(0), DatasetId(0), frame(0.2))
        .expect("submit")
        .recv_timeout(Duration::from_secs(30))
        .expect("a verdict");
    assert!(
        matches!(
            refused,
            WireResponse::Overloaded {
                reason: RejectReason::QueueFull,
                ..
            }
        ),
        "expected QueueFull, got {refused:?}"
    );

    // The blocking call backs off and resubmits per the client's options;
    // with the queue still full it must hand back the final Overloaded
    // verdict, not hang.
    let exhausted = client
        .render_interactive_blocking(ActionId(0), DatasetId(0), frame(0.3))
        .expect("submit");
    assert!(
        matches!(
            exhausted,
            WireResponse::Overloaded {
                reason: RejectReason::QueueFull,
                ..
            }
        ),
        "expected exhausted retries to surface QueueFull, got {exhausted:?}"
    );

    drop(client);
    server.stop();
    drop(rx);
}

/// End-to-end over TCP against a real policed service: a flood of
/// distinct-action frames hits the global in-flight cap, the excess is
/// answered `Overloaded`, and a retrying client eventually gets its frame
/// once the in-flight work drains.
#[test]
fn tcp_retry_recovers_once_the_cap_drains() {
    let policy = OverloadPolicy {
        max_in_flight: Some(2),
        ..OverloadPolicy::default()
    };
    let stats = policed(policy, |service| {
        let server = TcpServer::start("127.0.0.1:0", service.request_sender()).expect("bind");
        let client =
            RemoteClient::connect_with(server.addr(), UserId(0), ClientOptions::new().retries(50))
                .expect("connect");

        let receivers: Vec<_> = (0..8)
            .map(|i| {
                client
                    .render_interactive(ActionId(i), DatasetId(0), frame(0.1 * i as f32))
                    .expect("submit")
            })
            .collect();
        let mut frames = 0;
        let mut overloaded = 0;
        for rx in &receivers {
            match rx.recv_timeout(Duration::from_secs(60)).expect("a reply") {
                WireResponse::Frame(_) => frames += 1,
                WireResponse::Overloaded {
                    reason: RejectReason::GlobalCap,
                    ..
                } => overloaded += 1,
                other => panic!("unexpected reply: {other:?}"),
            }
        }
        assert_eq!(frames, 2, "the cap admits exactly two of the burst");
        assert_eq!(overloaded, 6);

        // A patient client retries past the transient rejections and renders.
        let recovered = client
            .render_interactive_blocking(ActionId(99), DatasetId(1), frame(0.7))
            .expect("submit");
        assert!(
            recovered.into_frame().is_some(),
            "retry must recover once the in-flight frames complete"
        );

        drop(client);
        server.stop();
    });
    assert_eq!(stats.jobs_completed, 3, "two burst frames + the retry");
    assert!(stats.overload.rejected >= 6);
}

/// A request naming a dataset outside the store's catalog is one
/// malformed request, not a reason to lose the head: the service answers
/// `Overloaded(UnknownDataset)` — at once, without spending the client's
/// retries, since backing off does not make a dataset exist — and keeps
/// serving the same connection. The server's requests pass through a
/// counting relay, so a single resubmission of the bad request fails the
/// test, and every blocking call waits on a bound, so a head that dies
/// instead of answering fails it too.
#[test]
fn unknown_dataset_is_rejected_and_the_head_keeps_serving() {
    let stats = policed(OverloadPolicy::default(), |service| {
        let (relay, requests) = crossbeam::channel::unbounded::<RenderRequest>();
        let head = service.request_sender();
        let unknown_seen = Arc::new(AtomicUsize::new(0));
        let seen = unknown_seen.clone();
        let forwarder = std::thread::spawn(move || {
            while let Ok(request) = requests.recv() {
                if request.dataset == DatasetId(7) {
                    seen.fetch_add(1, Ordering::SeqCst);
                }
                let _ = head.send(request);
            }
        });
        let server = TcpServer::start("127.0.0.1:0", relay).expect("bind");
        let client = Arc::new(
            RemoteClient::connect_with(server.addr(), UserId(0), ClientOptions::new().retries(20))
                .expect("connect"),
        );
        let blocking = |action: u64, dataset: u32, at: f32| {
            let (tx, rx) = std::sync::mpsc::channel();
            let client = client.clone();
            std::thread::spawn(move || {
                let _ = tx.send(client.render_interactive_blocking(
                    ActionId(action),
                    DatasetId(dataset),
                    frame(at),
                ));
            });
            rx.recv_timeout(Duration::from_secs(20))
                .unwrap_or_else(|e| panic!("dataset {dataset}: no response: {e}"))
        };

        let good = blocking(0, 0, 0.1).expect("submit");
        assert!(good.into_frame().is_some(), "the first frame renders");

        let bad = blocking(1, 7, 0.2).expect("submit");
        assert!(
            matches!(
                bad,
                WireResponse::Overloaded {
                    reason: RejectReason::UnknownDataset,
                    ..
                }
            ),
            "expected UnknownDataset, got {bad:?}"
        );
        assert_eq!(
            unknown_seen.load(Ordering::SeqCst),
            1,
            "the verdict must come back without a retry"
        );

        let again = blocking(2, 1, 0.3).expect("the connection is still served");
        assert!(again.into_frame().is_some(), "the head survived");

        client.close();
        server.stop();
        forwarder.join().expect("relay thread");
    });
    assert_eq!(stats.jobs_completed, 2);
    assert_eq!(stats.overload.rejected, 0, "a boundary verdict, not a job");
}
