//! FASTA round trip: whatever records are written, at whatever line
//! width, in whatever case, read back equal through every batch size.

use logan_seq::fasta::{write_fasta, FastaBatches, Record};
use logan_seq::{Alphabet, Seq};
use proptest::prelude::*;

/// Records `r0, r1, …` over `alphabet` from raw bytes (reduced to codes).
fn records(raw: Vec<Vec<u8>>, alphabet: Alphabet) -> Vec<Record> {
    let size = alphabet.size() as u8;
    raw.into_iter()
        .enumerate()
        .map(|(i, bytes)| Record {
            id: format!("r{i}"),
            seq: Seq::from_codes(bytes.into_iter().map(|b| b % size).collect(), alphabet),
        })
        .collect()
}

/// `records` as FASTA text with about a third of the letters in lower
/// case, `salt` choosing which (ids are lower case already).
fn mixed_case_fasta(records: &[Record], width: usize, salt: usize) -> Vec<u8> {
    let mut text = Vec::new();
    write_fasta(&mut text, records, width).unwrap();
    for (i, byte) in text.iter_mut().enumerate() {
        if (i * 7 + salt).is_multiple_of(3) {
            byte.make_ascii_lowercase();
        }
    }
    text
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn read_of_write_is_identity(
        raw in proptest::collection::vec(proptest::collection::vec(0u8..=255, 0..300), 0..9),
        width in 1usize..=120,
        salt in 0usize..3,
        protein in 0u8..2,
    ) {
        let alphabet = if protein == 1 { Alphabet::Protein } else { Alphabet::Dna };
        let want = records(raw, alphabet);
        let text = mixed_case_fasta(&want, width, salt);
        for batch_reads in [1, 2, 4096] {
            let mut got = Vec::new();
            for batch in FastaBatches::new_alphabet(&text[..], batch_reads, alphabet) {
                let batch = batch.unwrap();
                prop_assert!(!batch.is_empty() && batch.len() <= batch_reads);
                got.extend(batch);
            }
            prop_assert_eq!(&got, &want);
        }
    }
}
