//! The self-time fold over recorded spans.

use ratperf::trace::Tracer;

fn spin(iters: u64) {
    let mut x = 0u64;
    for i in 0..iters {
        x = std::hint::black_box(x.wrapping_add(i));
    }
}

#[test]
fn self_times_of_a_request_add_up_to_its_outermost_span() {
    let t = Tracer::new();
    for rid in 0..3u64 {
        let _request = t.span("request", rid);
        spin(1000);
        {
            let _a = t.span("a", rid);
            spin(1000);
            let _b = t.span("b", rid);
            spin(1000);
        }
        let _c = t.span("c", rid);
        spin(1000);
    }
    let trace = t.finish();
    assert_eq!(trace.len(), 12);
    let total = trace.per_request_self_ns(&["request"], 0..3);
    let whole: Vec<u64> = trace
        .profile
        .spans
        .iter()
        .filter(|s| s.name == "request")
        .map(|s| s.duration_ns())
        .collect();
    let all = trace.per_request_self_ns(&["request", "a", "b", "c"], 0..3);
    assert_eq!(all, whole, "self times partition each request's span");
    for (own, whole) in total.iter().zip(&whole) {
        assert!(own < whole, "children's time is not the parent's own");
    }
}

#[test]
fn requests_outside_the_range_are_left_out() {
    let t = Tracer::new();
    for rid in [5u64, 6, 70] {
        let _s = t.span("layer", rid);
        spin(100);
    }
    let trace = t.finish();
    assert_eq!(trace.per_request_self_ns(&["layer"], 0..10).len(), 2);
    assert!(trace.per_request_self_ns(&["other"], 0..100).is_empty());
}

#[test]
fn an_off_tracer_records_nothing() {
    let t = Tracer::off();
    drop(t.span("layer", 1));
    assert!(t.finish().is_empty());
}
