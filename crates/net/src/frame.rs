//! Incremental line framing for the TCP transport.
//!
//! TCP is a byte stream: a single `read` can return half a request, three
//! and a half requests, or one byte of a request — framing must be
//! independent of how the kernel fragments reads. [`LineFramer`] accepts
//! arbitrary byte chunks and yields exactly the same sequence of lines a
//! `BufRead::lines` over the concatenated stream would, enforcing a
//! maximum line length so one malicious or broken client cannot grow the
//! buffer without bound.
//!
//! The fragmentation-independence property is load-bearing for the whole
//! daemon (replies must pair 1:1 with requests regardless of packet
//! boundaries) and is pinned by a proptest that splits request streams at
//! every byte boundary (`tests/framing.rs`).

/// Default maximum request-line length (bytes, excluding the newline).
/// Generous for the protocol's worst case (`METRICS` requests are short;
/// the longest legitimate line is `ALLOC <u32> <u32>`), tight enough that
/// a garbage-spewing client is cut off after one buffer's worth.
pub const DEFAULT_MAX_LINE_LEN: usize = 64 * 1024;

/// What [`LineFramer::push`] found in the accumulated bytes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Framed {
    /// One complete line (newline stripped; a trailing `\r` from CRLF
    /// clients is stripped too).
    Line(String),
    /// The line under accumulation exceeded the length limit. The
    /// connection should be closed; resynchronizing inside a stream that
    /// has already violated the framing contract invites request smuggling.
    Oversize {
        /// Bytes accumulated when the limit was hit.
        len: usize,
    },
    /// Bytes were not valid UTF-8. Same remedy as [`Framed::Oversize`].
    NotUtf8,
}

/// How a stream broke framing ([`Framed::Oversize`] or
/// [`Framed::NotUtf8`]); the framer is poisoned from then on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Violation {
    /// The line under accumulation exceeded the length limit.
    Oversize {
        /// Bytes accumulated when the limit was hit.
        len: usize,
    },
    /// A line was not valid UTF-8.
    NotUtf8,
}

impl From<Violation> for Framed {
    fn from(v: Violation) -> Framed {
        match v {
            Violation::Oversize { len } => Framed::Oversize { len },
            Violation::NotUtf8 => Framed::NotUtf8,
        }
    }
}

/// Incremental splitter from byte chunks to protocol lines.
#[derive(Debug)]
pub struct LineFramer {
    /// The incomplete line carried over from earlier chunks.
    buf: Vec<u8>,
    max_line_len: usize,
    poisoned: bool,
}

impl Default for LineFramer {
    fn default() -> LineFramer {
        LineFramer::new(DEFAULT_MAX_LINE_LEN)
    }
}

impl LineFramer {
    /// A framer enforcing `max_line_len` bytes per line.
    pub fn new(max_line_len: usize) -> LineFramer {
        LineFramer {
            buf: Vec::new(),
            max_line_len,
            poisoned: false,
        }
    }

    /// Feed one chunk of bytes (as read from the socket) and append every
    /// line it completes to `lines`, each followed by `\n` (a trailing
    /// `\r` is stripped). Returns how many lines were appended, and the
    /// violation if the chunk broke framing: the lines before it are
    /// still appended, and after it the framer is poisoned — further
    /// pushes append nothing, because a stream that broke framing once
    /// cannot be re-synchronized safely.
    ///
    /// `lines` grows only when a line completes, and then once, to room
    /// for every line the chunk can complete: a chunk that completes no
    /// line leaves it untouched.
    pub fn push_lines(&mut self, chunk: &[u8], lines: &mut String) -> (usize, Option<Violation>) {
        let room = self.buf.len() + chunk.len();
        let mut count = 0;
        let violation = self.frame(chunk, |line| {
            if count == 0 {
                lines.reserve(room);
            }
            lines.push_str(line);
            lines.push('\n');
            count += 1;
        });
        (count, violation)
    }

    /// Feed one chunk of bytes and collect every line it completes, one
    /// [`Framed`] each, then the violation if the chunk broke framing.
    /// The same framing as [`LineFramer::push_lines`], one `String` per
    /// line.
    pub fn push(&mut self, chunk: &[u8]) -> Vec<Framed> {
        let mut out = Vec::new();
        let violation = self.frame(chunk, |line| out.push(Framed::Line(line.to_string())));
        out.extend(violation.map(Framed::from));
        out
    }

    /// The framing both public methods share: hand every line `chunk`
    /// completes to `emit`, in order, up to the first violation. A line
    /// that arrives whole inside one chunk is validated in place; only a
    /// line split across chunks passes through the framer's own buffer.
    fn frame(&mut self, chunk: &[u8], mut emit: impl FnMut(&str)) -> Option<Violation> {
        if self.poisoned {
            return None;
        }
        let mut rest = chunk;
        while let Some(end) = rest.iter().position(|&b| b == b'\n') {
            let (head, tail) = (&rest[..end], &rest[end + 1..]);
            rest = tail;
            if let Some(v) = self.check_len(head.len()) {
                return Some(v);
            }
            let line = if self.buf.is_empty() {
                head
            } else {
                self.buf.extend_from_slice(head);
                &self.buf
            };
            let line = line.strip_suffix(b"\r").unwrap_or(line);
            match std::str::from_utf8(line) {
                Ok(text) => emit(text),
                Err(_) => {
                    self.poisoned = true;
                    return Some(Violation::NotUtf8);
                }
            }
            self.buf.clear();
        }
        if let Some(v) = self.check_len(rest.len()) {
            return Some(v);
        }
        self.buf.extend_from_slice(rest);
        None
    }

    /// Poison the framer if `more` bytes on top of the buffered ones
    /// would exceed the line limit. The limit trips on the first byte
    /// past it, so the length reported is always one over the limit.
    fn check_len(&mut self, more: usize) -> Option<Violation> {
        if self.buf.len() + more <= self.max_line_len {
            return None;
        }
        self.poisoned = true;
        Some(Violation::Oversize {
            len: self.max_line_len + 1,
        })
    }

    /// Bytes of an incomplete trailing line still buffered.
    pub fn buffered(&self) -> usize {
        self.buf.len()
    }

    /// `true` once the stream has violated framing (oversize / non-UTF-8).
    pub fn is_poisoned(&self) -> bool {
        self.poisoned
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lines(framed: Vec<Framed>) -> Vec<String> {
        framed
            .into_iter()
            .map(|f| match f {
                Framed::Line(s) => s,
                other => panic!("expected line, got {other:?}"),
            })
            .collect()
    }

    #[test]
    fn single_chunk_multiple_lines() {
        let mut f = LineFramer::default();
        assert_eq!(
            lines(f.push(b"ALLOC 1 4\nFREE 1\n")),
            vec!["ALLOC 1 4", "FREE 1"]
        );
        assert_eq!(f.buffered(), 0);
    }

    #[test]
    fn byte_at_a_time_yields_the_same_lines() {
        let stream = b"ALLOC 1 4\nSTATUS\r\nQUIT\n";
        let mut f = LineFramer::default();
        let mut got = Vec::new();
        for b in stream {
            got.extend(lines(f.push(std::slice::from_ref(b))));
        }
        assert_eq!(got, vec!["ALLOC 1 4", "STATUS", "QUIT"]);
    }

    #[test]
    fn incomplete_tail_stays_buffered() {
        let mut f = LineFramer::default();
        assert!(f.push(b"ALLO").is_empty());
        assert_eq!(f.buffered(), 4);
        assert_eq!(lines(f.push(b"C 1 4\n")), vec!["ALLOC 1 4"]);
    }

    #[test]
    fn oversize_line_poisons_the_framer() {
        let mut f = LineFramer::new(8);
        let out = f.push(b"0123456789\nQUIT\n");
        assert_eq!(out, vec![Framed::Oversize { len: 9 }]);
        assert!(f.is_poisoned());
        assert!(
            f.push(b"QUIT\n").is_empty(),
            "poisoned framer yields nothing"
        );
    }

    #[test]
    fn oversize_counts_across_chunks() {
        let mut f = LineFramer::new(8);
        assert!(f.push(b"01234").is_empty());
        assert_eq!(f.push(b"56789"), vec![Framed::Oversize { len: 9 }]);
    }

    #[test]
    fn invalid_utf8_poisons_the_framer() {
        let mut f = LineFramer::default();
        assert_eq!(f.push(&[0xff, 0xfe, b'\n']), vec![Framed::NotUtf8]);
        assert!(f.is_poisoned());
    }

    #[test]
    fn push_lines_relays_every_line_of_a_chunk_at_once() {
        let mut f = LineFramer::default();
        let mut lines = String::new();
        assert_eq!(f.push_lines(b"ALLO", &mut lines), (0, None));
        assert_eq!(lines.capacity(), 0, "no line completed, nothing reserved");
        assert_eq!(f.push_lines(b"C 1 4\r\nSTA", &mut lines), (1, None));
        assert_eq!(f.push_lines(b"TUS\n\nFREE", &mut lines), (2, None));
        assert_eq!(lines, "ALLOC 1 4\nSTATUS\n\n");
        assert_eq!(f.buffered(), 4);
    }

    #[test]
    fn push_lines_keeps_the_lines_before_a_violation() {
        let mut f = LineFramer::default();
        let mut lines = String::new();
        let (n, violation) = f.push_lines(b"STATUS\nA\xff\nQUIT\n", &mut lines);
        assert_eq!((n, violation), (1, Some(Violation::NotUtf8)));
        assert_eq!(lines, "STATUS\n");
        assert_eq!(f.push_lines(b"QUIT\n", &mut lines), (0, None));

        let mut f = LineFramer::new(4);
        let mut lines = String::new();
        assert_eq!(
            f.push_lines(b"ab\nabcd\nabcde", &mut lines),
            (2, Some(Violation::Oversize { len: 5 }))
        );
        assert_eq!(lines, "ab\nabcd\n");
    }

    #[test]
    fn utf8_split_across_chunks_is_reassembled() {
        let text = "ÄLLOC 1 2\n".as_bytes();
        let mut f = LineFramer::default();
        let mut lines = String::new();
        assert_eq!(f.push_lines(&text[..1], &mut lines), (0, None));
        assert_eq!(f.push_lines(&text[1..], &mut lines), (1, None));
        assert_eq!(lines, "ÄLLOC 1 2\n");
    }

    #[test]
    fn crlf_is_stripped_only_at_line_end() {
        let mut f = LineFramer::default();
        assert_eq!(lines(f.push(b"A\rB\r\n")), vec!["A\rB"]);
    }
}
