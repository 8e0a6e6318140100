//! Adversarial decoding tests for the SEM wire protocol and journal.
//!
//! The SEM stays online for the system's lifetime (§4), so every byte
//! a peer can put on the wire — and every byte a crash can leave in
//! the journal — must decode without panicking and without letting a
//! declared length drive an allocation the frame cannot back.

use proptest::prelude::*;
use sempair_net::proto::{
    self, decode_batch_items, decode_batch_replies, decode_request, decode_response,
    encode_batch_items, encode_batch_replies, encode_request, encode_response, Op, Request,
    Response, Status,
};
use sempair_net::store::{Journal, Record};
use std::sync::atomic::{AtomicUsize, Ordering};

fn sample_request(op_tag: u8, id: String, body: Vec<u8>) -> Request {
    let op = match op_tag % 3 {
        0 => Op::IbeToken,
        1 => Op::GdhHalfSign,
        _ => Op::TokenShare,
    };
    Request { op, id, body }
}

fn sample_response(status_tag: u8, body: Vec<u8>) -> Response {
    let status = match status_tag % 4 {
        0 => Status::Ok,
        1 => Status::Revoked,
        2 => Status::Unknown,
        _ => Status::Invalid,
    };
    Response { status, body }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn random_garbage_never_panics(bytes in proptest::collection::vec(any::<u8>(), 0..512)) {
        let _ = decode_request(&bytes);
        let _ = decode_response(&bytes);
        let _ = decode_batch_items(&bytes);
        let _ = decode_batch_replies(&bytes);
    }

    #[test]
    fn request_roundtrips_and_rejects_truncation(
        op_tag in 0u8..3,
        id in "[a-z@.]{0,40}",
        body in proptest::collection::vec(any::<u8>(), 0..64),
        cut in 0usize..32,
    ) {
        let req = sample_request(op_tag, id, body);
        let frame = encode_request(&req).unwrap();
        let payload = &frame[4..];
        prop_assert_eq!(decode_request(payload), Some(req));
        // Any strict prefix fails the exact body-length check.
        if cut > 0 {
            let end = payload.len().saturating_sub(cut);
            prop_assert_eq!(decode_request(&payload[..end]), None);
        }
    }

    #[test]
    fn response_roundtrips_and_rejects_truncation(
        status_tag in 0u8..4,
        body in proptest::collection::vec(any::<u8>(), 0..64),
        cut in 1usize..16,
    ) {
        let resp = sample_response(status_tag, body);
        let frame = encode_response(&resp);
        let payload = &frame[4..];
        prop_assert_eq!(decode_response(payload), Some(resp));
        let end = payload.len().saturating_sub(cut);
        prop_assert_eq!(decode_response(&payload[..end]), None);
    }

    #[test]
    fn stomped_request_bytes_never_panic(
        op_tag in 0u8..3,
        id in "[a-z]{1,20}",
        body in proptest::collection::vec(any::<u8>(), 1..48),
        pos in 0usize..64,
        stomp in any::<u8>(),
    ) {
        let req = sample_request(op_tag, id, body);
        let mut frame = encode_request(&req).unwrap();
        let idx = 4 + pos % (frame.len() - 4);
        frame[idx] ^= stomp;
        // Must fail closed or parse as *some* request — never panic.
        let _ = decode_request(&frame[4..]);
    }

    #[test]
    fn batch_roundtrips_and_adversarial_counts_fail_closed(
        ids in proptest::collection::vec("[a-z]{0,12}", 0..6),
        count_header in any::<u16>(),
        tail in proptest::collection::vec(any::<u8>(), 0..48),
    ) {
        let items: Vec<Request> = ids
            .into_iter()
            .enumerate()
            .map(|(i, id)| sample_request(i as u8 % 2, id, vec![i as u8; i]))
            .collect();
        let body = encode_batch_items(&items);
        let decoded = decode_batch_items(&body);
        prop_assert_eq!(decoded.as_ref(), Some(&items));
        // A forged count header over arbitrary item bytes: the declared
        // count can exceed what `tail` holds by orders of magnitude; the
        // decoder must reject or parse without panicking, and a count
        // larger than tail/7 items must never succeed.
        let mut forged = count_header.to_be_bytes().to_vec();
        forged.extend_from_slice(&tail);
        if let Some(parsed) = decode_batch_items(&forged) {
            prop_assert_eq!(parsed.len(), count_header as usize);
        }
    }

    #[test]
    fn batch_replies_roundtrip_and_survive_stomps(
        statuses in proptest::collection::vec(0u8..4, 0..6),
        pos in 0usize..64,
        stomp in any::<u8>(),
    ) {
        let replies: Vec<Response> = statuses
            .iter()
            .map(|&s| sample_response(s, vec![s; s as usize]))
            .collect();
        let mut body = encode_batch_replies(&replies);
        let decoded = decode_batch_replies(&body);
        prop_assert_eq!(decoded.as_ref(), Some(&replies));
        if !body.is_empty() {
            let idx = pos % body.len();
            body[idx] ^= stomp;
            let _ = decode_batch_replies(&body);
        }
    }

    #[test]
    fn journal_replay_survives_arbitrary_tail_corruption(
        records in proptest::collection::vec("[a-z]{1,10}", 0..5),
        tail in proptest::collection::vec(any::<u8>(), 0..64),
    ) {
        // Process id plus a per-process case counter: no two cases,
        // in this run or a concurrent one, share a journal file.
        static CASE: AtomicUsize = AtomicUsize::new(0);
        let path = std::env::temp_dir().join(format!(
            "sempair-adv-journal-{}-{}.journal",
            std::process::id(),
            CASE.fetch_add(1, Ordering::Relaxed),
        ));
        let _ = std::fs::remove_file(&path);
        {
            let (mut journal, _) = Journal::open(&path).unwrap();
            for id in &records {
                journal.append(&Record::Revoke(id.clone())).unwrap();
            }
        }
        // Simulate a crash mid-append: arbitrary bytes after the last
        // intact record.
        use std::io::Write;
        let mut f = std::fs::OpenOptions::new().append(true).open(&path).unwrap();
        f.write_all(&tail).unwrap();
        drop(f);
        // Replay must heal: every intact record survives, the tail is
        // truncated, and a reopen sees a clean file.
        let (_, state) = Journal::open(&path).unwrap();
        for id in &records {
            prop_assert!(state.revoked.contains(id.as_str()));
        }
        prop_assert!(state.records >= records.len());
        let (_, clean) = Journal::open(&path).unwrap();
        prop_assert_eq!(clean.truncated_bytes, 0);
        let _ = std::fs::remove_file(&path);
    }
}

#[test]
fn frame_cap_is_enforced_at_encode() {
    let req = Request {
        op: Op::IbeToken,
        id: String::new(),
        body: vec![0u8; proto::MAX_FRAME + 1],
    };
    assert!(encode_request(&req).is_err());
}
