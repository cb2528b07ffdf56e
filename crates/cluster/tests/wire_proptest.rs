//! The cluster wire codec on hostile input: `Request::decode` and
//! `Response::decode` must return a typed [`WireError`] — never panic, never
//! allocate past what the frame holds — for arbitrary bytes, for every
//! truncation of a valid frame, and for valid frames with flipped bits.  The
//! extended `Breakpoint` messages (the next x-breakpoint *and* the next
//! y-edge) round-trip bit for bit.

use maxrs_cluster::protocol::{PassSpec, PieceSet, ShardInfo, WireError};
use maxrs_cluster::{Request, Response};
use maxrs_core::{ObjectRecord, RectRecord, SlabTuple, SpanEvent};
use maxrs_em::IoSnapshot;
use maxrs_geometry::{Interval, Point, Rect, RectSize};
use proptest::prelude::*;

fn pass() -> PassSpec {
    PassSpec {
        size: RectSize::new(3.0, 4.5),
        weight_scale: 1.0,
        root: Interval::new(-2.0, 7.25),
        bounds: vec![-2.0, 0.0, 7.25],
        owners: vec![0, 1],
        engaged: vec![0, 1, 2],
        suppressed: vec![Rect::new(0.0, 1.0, -2.0, 3.0)],
    }
}

fn requests() -> Vec<Request> {
    vec![
        Request::Describe,
        Request::Distribute(pass()),
        Request::Solve {
            pass: pass(),
            imported: vec![PieceSet {
                source: 2,
                slab: 1,
                rects: vec![RectRecord::new(Rect::new(-1.0, 0.5, 2.0, 4.0), 2.5)],
            }],
        },
        Request::Breakpoint {
            size: RectSize::square(2.0),
            root: Interval::UNBOUNDED,
            after_x: -3.75,
            after_y: 11.0,
            suppressed: vec![Rect::new(1.0, 3.0, 10.0, 12.0)],
        },
        Request::Evaluate {
            candidates: vec![Point::new(1.0, 2.0), Point::new(-0.5, 0.25)],
            diameter: 4.0,
        },
        Request::FetchObjects,
    ]
}

fn responses() -> Vec<Response> {
    let io = IoSnapshot {
        reads: 3,
        writes: 4,
    };
    vec![
        Response::Described {
            boundaries: vec![0.0, 10.0],
            backend: "sim".to_string(),
            shards: vec![ShardInfo {
                shard: 1,
                len: 12,
                prepare_io: io,
            }],
        },
        Response::Distributed {
            spans: vec![(1, SpanEvent::pair(0.5, 2.5, 3.0, 1, 4).to_vec())],
            exported: vec![PieceSet {
                source: 1,
                slab: 0,
                rects: vec![RectRecord::new(Rect::new(0.0, 1.0, 0.0, 1.0), 1.0)],
            }],
            io,
        },
        Response::Solved {
            slabs: vec![(0, vec![SlabTuple::new(1.0, f64::NEG_INFINITY, 2.0, 5.0)])],
            io,
        },
        Response::Breakpoint {
            hi: 4.5,
            next_y: f64::INFINITY,
            io,
        },
        Response::Evaluated {
            sums: vec![(0, vec![1.0, 2.0])],
            io,
        },
        Response::Objects {
            objects: vec![(1, vec![ObjectRecord::new(1.0, 2.0, 3.0)])],
            io,
        },
        Response::Error {
            message: "boom".to_string(),
        },
    ]
}

/// Decodes `bytes` both ways: a panic fails the test, and a rejection is a
/// `WireError` saying what is wrong.
fn decode_both(bytes: &[u8]) {
    if let Err(WireError(why)) = Request::decode(bytes) {
        assert!(!why.is_empty());
    }
    if let Err(WireError(why)) = Response::decode(bytes) {
        assert!(!why.is_empty());
    }
}

#[test]
fn extended_breakpoint_messages_roundtrip_bit_for_bit() {
    for (after_y, next_y) in [
        (0.0, -0.0),
        (-1e300, f64::INFINITY),
        (f64::MIN_POSITIVE, 3.5),
    ] {
        let request = Request::Breakpoint {
            size: RectSize::new(2.0, 0.5),
            root: Interval::new(-4.0, f64::INFINITY),
            after_x: 1.25,
            after_y,
            suppressed: vec![],
        };
        let Request::Breakpoint { after_y: got, .. } = Request::decode(&request.encode()).unwrap()
        else {
            panic!("a Breakpoint request decoded as another variant");
        };
        assert_eq!(got.to_bits(), after_y.to_bits());

        let response = Response::Breakpoint {
            hi: 9.0,
            next_y,
            io: IoSnapshot {
                reads: 1,
                writes: 0,
            },
        };
        let decoded = Response::decode(&response.encode()).unwrap();
        let Response::Breakpoint { next_y: got, .. } = decoded else {
            panic!("a Breakpoint reply decoded as another variant");
        };
        assert_eq!(got.to_bits(), next_y.to_bits());
        assert_eq!(decoded, response);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(400))]

    #[test]
    fn arbitrary_bytes_decode_to_typed_errors(
        bytes in prop::collection::vec(any::<u8>(), 0..200),
        tag in 0u8..8,
    ) {
        decode_both(&bytes);
        // The same bytes behind every known tag reach each variant's body.
        let mut tagged = vec![tag];
        tagged.extend_from_slice(&bytes);
        decode_both(&tagged);
    }

    #[test]
    fn truncated_frames_are_errors(pick in any::<usize>(), cut in any::<usize>()) {
        let requests = requests();
        let request = requests[pick % requests.len()].encode();
        let at = cut % request.len();
        prop_assert!(Request::decode(&request[..at]).is_err());

        let responses = responses();
        let response = responses[pick % responses.len()].encode();
        let at = cut % response.len();
        prop_assert!(Response::decode(&response[..at]).is_err());
    }

    #[test]
    fn bit_flipped_frames_never_panic(
        pick in any::<usize>(),
        flips in prop::collection::vec(any::<usize>(), 1..4),
    ) {
        let requests = requests();
        let responses = responses();
        for mut frame in [
            requests[pick % requests.len()].encode(),
            responses[pick % responses.len()].encode(),
        ] {
            for &f in &flips {
                let bit = f % (frame.len() * 8);
                frame[bit / 8] ^= 1 << (bit % 8);
            }
            decode_both(&frame);
        }
    }
}

#[test]
fn every_single_bit_flip_decodes_without_panicking() {
    let frames: Vec<Vec<u8>> = requests()
        .iter()
        .map(Request::encode)
        .chain(responses().iter().map(Response::encode))
        .collect();
    for frame in frames {
        for bit in 0..frame.len() * 8 {
            let mut flipped = frame.clone();
            flipped[bit / 8] ^= 1 << (bit % 8);
            decode_both(&flipped);
        }
    }
}

#[test]
fn sample_frames_roundtrip() {
    for request in requests() {
        assert_eq!(Request::decode(&request.encode()).unwrap(), request);
    }
    for response in responses() {
        assert_eq!(Response::decode(&response.encode()).unwrap(), response);
    }
}
