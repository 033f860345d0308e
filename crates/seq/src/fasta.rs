//! Minimal FASTA I/O.
//!
//! The benchmark harnesses are fully synthetic, but a real adopter of a
//! long-read aligner needs to get reads in and out of files; this module
//! supplies a buffered reader and writer for FASTA.
//!
//! The readers work on bytes (minimap2-style): a line is read into a
//! reusable buffer, never validated as UTF-8 (only a header's id has to
//! be text), and a sequence line is encoded straight into codes through
//! the alphabet's 256-entry table — the one encoder behind
//! `Seq::from_ascii_alphabet` too.

use crate::alphabet::Alphabet;
use crate::seq::{encode_ascii, Seq};
use std::fmt;
use std::io::{self, BufRead, BufReader, BufWriter, Read, Write};

/// A named sequence record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Record {
    /// Record identifier (text after `>`, up to the first space).
    pub id: String,
    /// The sequence.
    pub seq: Seq,
}

/// Errors from FASTA parsing.
#[derive(Debug)]
pub enum FastaError {
    /// Underlying I/O failure.
    Io(io::Error),
    /// Structural problem, with a line number and message.
    Parse {
        /// 1-based line number.
        line: usize,
        /// Human-readable description.
        message: String,
    },
}

impl fmt::Display for FastaError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FastaError::Io(e) => write!(f, "I/O error: {e}"),
            FastaError::Parse { line, message } => write!(f, "line {line}: {message}"),
        }
    }
}

impl std::error::Error for FastaError {}

impl From<io::Error> for FastaError {
    fn from(e: io::Error) -> FastaError {
        FastaError::Io(e)
    }
}

/// The input as lines of bytes: `\n`- or `\r\n`-terminated (or ended by
/// the end of input), trailing ASCII whitespace trimmed, one reusable
/// buffer.
struct Lines<R: Read> {
    br: BufReader<R>,
    buf: Vec<u8>,
    /// 1-based number of the current line; the end of input counts as
    /// one more line.
    lineno: usize,
}

impl<R: Read> Lines<R> {
    fn new(reader: R) -> Lines<R> {
        Lines {
            br: BufReader::new(reader),
            buf: Vec::new(),
            lineno: 0,
        }
    }

    /// Move to the next line; `false` at the end of input, where
    /// [`Lines::line`] reads empty.
    fn advance(&mut self) -> io::Result<bool> {
        self.buf.clear();
        let n = self.br.read_until(b'\n', &mut self.buf)?;
        self.lineno += 1;
        Ok(n > 0)
    }

    fn line(&self) -> &[u8] {
        self.buf.trim_ascii_end()
    }

    /// A parse error at the current line.
    fn error(&self, message: impl Into<String>) -> FastaError {
        FastaError::Parse {
            line: self.lineno,
            message: message.into(),
        }
    }

    /// The id of the current line, a header whose marker (`>` / `@`)
    /// has been cut off: its first whitespace-delimited token. A bare or
    /// whitespace-only header is an error — anonymous records used to
    /// silently collapse to the id `""` and collide downstream.
    ///
    /// Duplicate ids across *distinct, named* records are deliberately
    /// allowed — real FASTA files (resequenced runs, concatenated inputs)
    /// contain them, and every downstream consumer addresses reads by
    /// ordinal, not id. Only the empty id is an error, because it is never
    /// intentional.
    fn id(&self, header: &[u8]) -> Result<String, FastaError> {
        let header = std::str::from_utf8(header).map_err(|_| self.error("header is not UTF-8"))?;
        let id = header.split_whitespace().next();
        id.map(str::to_string)
            .ok_or_else(|| self.error("empty header: record has no id"))
    }
}

/// Read all records from FASTA text. Sequences may span multiple lines;
/// blank lines are ignored. Characters outside `ACGTacgt` are rejected
/// (the aligners have no ambiguity handling).
///
/// This materializes the whole file; a bounded-memory consumer (the
/// streaming BELLA pipeline, arbitrarily large inputs) should iterate
/// [`FastaBatches`] instead.
pub fn read_fasta<R: Read>(reader: R) -> Result<Vec<Record>, FastaError> {
    read_fasta_alphabet(reader, Alphabet::Dna)
}

/// [`read_fasta`] parameterized by alphabet: `Alphabet::Protein` reads
/// amino-acid FASTA (the 20 standard residues, case-insensitive) for
/// translated / protein-homology search.
pub fn read_fasta_alphabet<R: Read>(
    reader: R,
    alphabet: Alphabet,
) -> Result<Vec<Record>, FastaError> {
    let mut records = Vec::new();
    for batch in FastaBatches::new_alphabet(reader, 4096, alphabet) {
        records.extend(batch?);
    }
    Ok(records)
}

/// Incremental FASTA reader yielding bounded batches of at most
/// `batch_reads` records, so a pipeline can start working while the
/// file is still being read and never holds more than one batch of
/// parsed records (plus the record currently being assembled).
///
/// Identical grammar and error reporting to [`read_fasta`] — which is
/// implemented on top of this iterator. After the first `Err` (or the
/// end of input) the iterator is fused: further calls yield `None`.
pub struct FastaBatches<R: Read> {
    lines: Lines<R>,
    batch_reads: usize,
    /// Id of the record being read, once its header has been seen.
    current: Option<String>,
    /// Its codes so far. Reused from record to record: a finished
    /// record takes an exact-size copy, so no record carries the growth
    /// slack of a buffer that was appended to line by line.
    codes: Vec<u8>,
    alphabet: Alphabet,
    done: bool,
}

impl<R: Read> FastaBatches<R> {
    /// Start streaming `reader` in batches of at most `batch_reads`
    /// records (clamped to at least 1), parsed as DNA.
    pub fn new(reader: R, batch_reads: usize) -> FastaBatches<R> {
        FastaBatches::new_alphabet(reader, batch_reads, Alphabet::Dna)
    }

    /// [`FastaBatches::new`] parameterized by alphabet.
    pub fn new_alphabet(reader: R, batch_reads: usize, alphabet: Alphabet) -> FastaBatches<R> {
        FastaBatches {
            lines: Lines::new(reader),
            batch_reads: batch_reads.max(1),
            current: None,
            codes: Vec::new(),
            alphabet,
            done: false,
        }
    }

    /// Close the record being read (if any) and open the one `next_id`
    /// names (if any).
    fn turn_record(&mut self, next_id: Option<String>) -> Option<Record> {
        let id = std::mem::replace(&mut self.current, next_id)?;
        let seq = Seq::owning(self.codes.to_vec(), self.alphabet);
        self.codes.clear();
        Some(Record { id, seq })
    }

    /// The next batch; empty only at the end of input.
    fn read_batch(&mut self) -> Result<Vec<Record>, FastaError> {
        let mut out = Vec::new();
        while self.lines.advance()? {
            match self.lines.line() {
                [] => {}
                [b'>', header @ ..] => {
                    let id = self.lines.id(header)?;
                    out.extend(self.turn_record(Some(id)));
                    if out.len() >= self.batch_reads {
                        // The next record's header is already stashed in
                        // `current`; resume from it on the next call.
                        return Ok(out);
                    }
                }
                line => {
                    let Some(id) = &self.current else {
                        return Err(self.lines.error("sequence data before first header"));
                    };
                    let at = self.codes.len();
                    encode_ascii(line, self.alphabet, &mut self.codes).map_err(|mut e| {
                        e.position += at;
                        self.lines.error(format!("record {id}: {e}"))
                    })?;
                }
            }
        }
        self.done = true;
        out.extend(self.turn_record(None));
        Ok(out)
    }
}

impl<R: Read> Iterator for FastaBatches<R> {
    type Item = Result<Vec<Record>, FastaError>;

    fn next(&mut self) -> Option<Self::Item> {
        if self.done {
            return None;
        }
        let batch = self.read_batch();
        self.done |= batch.is_err();
        match batch {
            Ok(records) if records.is_empty() => None,
            batch => Some(batch),
        }
    }
}

/// Write records as FASTA, wrapping sequence lines at `width` characters.
pub fn write_fasta<W: Write>(writer: W, records: &[Record], width: usize) -> io::Result<()> {
    assert!(width > 0, "line width must be positive");
    let mut bw = BufWriter::new(writer);
    for r in records {
        writeln!(bw, ">{}", r.id)?;
        let ascii = r.seq.to_ascii();
        for chunk in ascii.chunks(width) {
            bw.write_all(chunk)?;
            bw.write_all(b"\n")?;
        }
    }
    bw.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fasta_roundtrip() {
        let records = vec![
            Record {
                id: "r1".into(),
                seq: Seq::from_str_strict("ACGTACGTACGT").unwrap(),
            },
            Record {
                id: "r2".into(),
                seq: Seq::from_str_strict("TTTT").unwrap(),
            },
        ];
        let mut buf = Vec::new();
        write_fasta(&mut buf, &records, 5).unwrap();
        let back = read_fasta(&buf[..]).unwrap();
        assert_eq!(back, records);
    }

    #[test]
    fn fasta_multiline_and_blank_lines() {
        let text = b">read one extra words\nACGT\n\nACGT\n>two\nGG\n";
        let recs = read_fasta(&text[..]).unwrap();
        assert_eq!(recs.len(), 2);
        assert_eq!(recs[0].id, "read");
        assert_eq!(recs[0].seq.len(), 8);
        assert_eq!(recs[1].seq.to_ascii(), b"GG");
    }

    #[test]
    fn fasta_rejects_leading_garbage() {
        let err = read_fasta(&b"ACGT\n>x\nACGT\n"[..]).unwrap_err();
        assert!(err.to_string().contains("before first header"));
    }

    #[test]
    fn fasta_rejects_bad_base() {
        let err = read_fasta(&b">x\nACNT\n"[..]).unwrap_err();
        assert!(err.to_string().contains("invalid DNA"));
    }

    #[test]
    fn protein_fasta_reads_and_rejects() {
        let text = b">p1 some protein\nMKWF\nARND\n>p2\nwv\n";
        let recs = read_fasta_alphabet(&text[..], Alphabet::Protein).unwrap();
        assert_eq!(recs.len(), 2);
        assert_eq!(recs[0].seq.to_ascii(), b"MKWFARND");
        assert_eq!(recs[0].seq.alphabet(), Alphabet::Protein);
        assert_eq!(recs[1].seq.to_ascii(), b"WV", "lower case accepted");
        // B, J, O, U, X, Z are not standard residues.
        let err = read_fasta_alphabet(&b">p\nMKXF\n"[..], Alphabet::Protein).unwrap_err();
        assert!(err.to_string().contains("invalid protein"), "{err}");
        // DNA is a subset of the protein alphabet by letters (ACGT are
        // amino acids too), but not vice versa.
        let err = read_fasta(&b">p\nMKWF\n"[..]).unwrap_err();
        assert!(err.to_string().contains("invalid DNA"), "{err}");
    }

    #[test]
    fn empty_inputs() {
        assert!(read_fasta(&b""[..]).unwrap().is_empty());
    }

    #[test]
    fn fasta_rejects_bare_header() {
        // A bare `>` used to yield an anonymous record with id "";
        // two of them would silently collide. Now it's a parse error
        // with the 1-based line number of the offending header.
        let err = read_fasta(&b">a\nACGT\n>\nGGGG\n"[..]).unwrap_err();
        match err {
            FastaError::Parse { line, ref message } => {
                assert_eq!(line, 3);
                assert!(message.contains("empty header"), "{message}");
            }
            other => panic!("expected Parse error, got {other:?}"),
        }
    }

    #[test]
    fn fasta_rejects_whitespace_only_header() {
        let err = read_fasta(&b">   \t \nACGT\n"[..]).unwrap_err();
        match err {
            FastaError::Parse { line, ref message } => {
                assert_eq!(line, 1);
                assert!(message.contains("empty header"), "{message}");
            }
            other => panic!("expected Parse error, got {other:?}"),
        }
    }

    #[test]
    fn duplicate_ids_are_allowed() {
        // Policy: duplicate ids across named records are legal (readers
        // address records by ordinal, and concatenated real-world files
        // contain repeats); only the *empty* id is rejected.
        let recs = read_fasta(&b">r1\nACGT\n>r1\nGGGG\n"[..]).unwrap();
        assert_eq!(recs.len(), 2);
        assert_eq!(recs[0].id, "r1");
        assert_eq!(recs[1].id, "r1");
        assert_ne!(recs[0].seq, recs[1].seq);
    }

    #[test]
    fn batches_stream_the_same_records() {
        // 10 records, multi-line bodies, blank lines interleaved.
        let mut text = String::new();
        for i in 0..10 {
            text.push_str(&format!(">r{i} extra\nACGT\n\nACG{}\n", "T".repeat(i)));
        }
        let whole = read_fasta(text.as_bytes()).unwrap();
        assert_eq!(whole.len(), 10);
        for batch_reads in [1, 3, 4, 10, 99] {
            let mut streamed = Vec::new();
            let mut sizes = Vec::new();
            for batch in FastaBatches::new(text.as_bytes(), batch_reads) {
                let batch = batch.unwrap();
                sizes.push(batch.len());
                streamed.extend(batch);
            }
            assert_eq!(streamed, whole, "batch_reads={batch_reads}");
            assert!(sizes.iter().all(|&s| s <= batch_reads.max(1)));
            // All but the final batch are full.
            for &s in &sizes[..sizes.len() - 1] {
                assert_eq!(s, batch_reads.max(1));
            }
        }
    }

    #[test]
    fn batches_report_errors_then_fuse() {
        // Third record carries an invalid base; the first batch (size 2)
        // streams clean, then the error surfaces and the iterator ends.
        let text = b">a\nACGT\n>b\nGG\n>c\nACNT\n>d\nTT\n";
        let mut it = FastaBatches::new(&text[..], 2);
        let first = it.next().unwrap().unwrap();
        assert_eq!(first.len(), 2);
        let err = it.next().unwrap().unwrap_err();
        assert!(err.to_string().contains("invalid DNA"), "{err}");
        assert!(it.next().is_none(), "iterator must fuse after an error");
        // Same error (message and line) as the monolithic reader.
        let whole_err = read_fasta(&text[..]).unwrap_err();
        assert_eq!(err.to_string(), whole_err.to_string());
    }

    /// What a hostile input must come to: these records (id, bases), or
    /// a parse error at this line whose message holds this text.
    enum Want {
        Records(&'static [(&'static str, &'static str)]),
        ParseError(usize, &'static str),
    }
    use Want::{ParseError, Records};

    fn check(what: &[u8], got: Result<Vec<Record>, FastaError>, want: &Want) {
        let what = String::from_utf8_lossy(what);
        match (got, want) {
            (Ok(got), Records(want)) => {
                let got: Vec<(String, String)> =
                    got.into_iter().map(|r| (r.id, r.seq.to_string())).collect();
                let want: Vec<(String, String)> = want
                    .iter()
                    .map(|&(id, seq)| (id.to_string(), seq.to_string()))
                    .collect();
                assert_eq!(got, want, "{what:?}");
            }
            (Err(FastaError::Parse { line, message }), &ParseError(at, text)) => {
                assert_eq!(line, at, "{what:?}: {message}");
                assert!(message.contains(text), "{what:?}: {message}");
            }
            (got, _) => panic!("{what:?}: unexpected {got:?}"),
        }
    }

    #[test]
    fn hostile_fasta_is_records_or_a_parse_error_with_its_line() {
        let cases: &[(&[u8], Want)] = &[
            (b"", Records(&[])),
            (b"\n\r\n  \n", Records(&[])),
            // End of input without a newline, blank and blank-ish lines.
            (b">a\nACGT", Records(&[("a", "ACGT")])),
            (b">a", Records(&[("a", "")])),
            (b">a\n  \nAC\n\t\nGT  \n", Records(&[("a", "ACGT")])),
            // CRLF files parse to what the LF file parses to.
            (
                b">a desc\r\nAC\r\nGT\r\n\r\n>b\r\nTT\r\n",
                Records(&[("a", "ACGT"), ("b", "TT")]),
            ),
            (b">a\r\nACGT\r", Records(&[("a", "ACGT")])),
            // A lone CR is no line break: whitespace in a header, an
            // invalid symbol inside a sequence line.
            (b">a\rACGT\n", Records(&[("a", "")])),
            (
                b">a\nAC\rGT\n",
                ParseError(2, "record a: invalid DNA character '\\r' at position 2"),
            ),
            // Bytes that are not text at all.
            (
                b">a\nAC\0GT\n",
                ParseError(2, "invalid DNA character '\\0' at position 2"),
            ),
            (
                b">a\nACGT\nAC\xFFT\n>b\nTT\n",
                ParseError(3, "record a: invalid DNA character '\u{ff}' at position 6"),
            ),
            (b">a\xFF\nACGT\n", ParseError(1, "header is not UTF-8")),
            (b">a\n>\xC3\n", ParseError(2, "header is not UTF-8")),
            (
                b">r\xC3\xA9sum\xC3\xA9 x\nAC\n",
                Records(&[("r\u{e9}sum\u{e9}", "AC")]),
            ),
            // The error names the line of the offending byte, not the
            // line on which the record ended.
            (
                b">a\nACGT\nACNT\nACGT\n>b\nTT\n",
                ParseError(3, "invalid DNA character 'N' at position 6"),
            ),
            (
                b">a\n ACGT\n",
                ParseError(2, "invalid DNA character ' ' at position 0"),
            ),
            // Structure.
            (b">", ParseError(1, "empty header")),
            (b">\n", ParseError(1, "empty header")),
            (b">a\nAC\n> \t\r\n", ParseError(3, "empty header")),
            (b"ACGT\n>a\nACGT\n", ParseError(1, "before first header")),
            (b"\n\n\xFF\n", ParseError(3, "before first header")),
            (
                b";comment\n>a\nACGT\n",
                ParseError(1, "before first header"),
            ),
        ];
        for (input, want) in cases {
            check(input, read_fasta(*input), want);
            // The batch size moves no record, line number or message.
            for batch_reads in [1, 2] {
                let got = FastaBatches::new(*input, batch_reads)
                    .collect::<Result<Vec<_>, _>>()
                    .map(|batches| batches.concat());
                check(input, got, want);
            }
        }
        // The same per alphabet: position counts across lines, the
        // record is named, lower case is accepted.
        let err = read_fasta_alphabet(&b">p\nmkwf\nAR\xFFD\n"[..], Alphabet::Protein);
        let want = ParseError(
            3,
            "record p: invalid protein character '\u{ff}' at position 6",
        );
        check(b"protein", err, &want);
    }
}
