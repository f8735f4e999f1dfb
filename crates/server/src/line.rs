//! Bounded line reads: the replacement for bare `read_line` into an
//! unbounded `String`.  A peer that streams without ever sending a newline
//! can no longer balloon a connection thread's buffer — the read stops at
//! the byte cap, the oversized line is drained and reported, and the
//! connection stays usable.

use std::io::{self, BufRead};

/// What one bounded line read observed.
#[derive(Debug, PartialEq, Eq)]
pub(crate) enum LineRead {
    /// The peer closed the stream before any byte of a new line.
    Eof,
    /// One complete line (newline stripped; invalid UTF-8 decoded lossily).
    Line(String),
    /// The line exceeded the cap.  Its bytes up to and including the
    /// terminating newline have been consumed, so the next read starts on
    /// the next line — the caller answers a typed error and keeps going.
    Overflow,
}

/// Reads one `\n`-terminated line of at most `cap` bytes (excluding the
/// newline) from `reader`.  I/O errors (including read timeouts) pass
/// through untouched.
pub(crate) fn read_limited_line(reader: &mut impl BufRead, cap: usize) -> io::Result<LineRead> {
    let mut buffer: Vec<u8> = Vec::new();
    loop {
        let chunk = reader.fill_buf()?;
        if chunk.is_empty() {
            // EOF mid-line still hands back what arrived, matching
            // `read_line`; EOF before any byte is a clean close.
            return Ok(if buffer.is_empty() {
                LineRead::Eof
            } else {
                LineRead::Line(into_text(buffer))
            });
        }
        match chunk.iter().position(|&byte| byte == b'\n') {
            Some(newline) => {
                if buffer.len() + newline > cap {
                    reader.consume(newline + 1);
                    return Ok(LineRead::Overflow);
                }
                buffer.extend_from_slice(&chunk[..newline]);
                reader.consume(newline + 1);
                return Ok(LineRead::Line(into_text(buffer)));
            }
            None => {
                let taken = chunk.len();
                if buffer.len() + taken > cap {
                    // Over the cap with no newline yet: drain to the next
                    // newline without buffering, then report the overflow.
                    reader.consume(taken);
                    drain_to_newline(reader)?;
                    return Ok(LineRead::Overflow);
                }
                buffer.extend_from_slice(chunk);
                reader.consume(taken);
            }
        }
    }
}

/// The line's bytes as text without a copy, unless they are not UTF-8:
/// then lossily, as before.
fn into_text(buffer: Vec<u8>) -> String {
    String::from_utf8(buffer)
        .unwrap_or_else(|invalid| String::from_utf8_lossy(invalid.as_bytes()).into_owned())
}

/// Consumes bytes until a newline has been eaten (or EOF).
fn drain_to_newline(reader: &mut impl BufRead) -> io::Result<()> {
    loop {
        let chunk = reader.fill_buf()?;
        if chunk.is_empty() {
            return Ok(());
        }
        match chunk.iter().position(|&byte| byte == b'\n') {
            Some(newline) => {
                reader.consume(newline + 1);
                return Ok(());
            }
            None => {
                let taken = chunk.len();
                reader.consume(taken);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::BufReader;

    fn read_all(input: &[u8], cap: usize) -> Vec<LineRead> {
        let mut reader = BufReader::with_capacity(4, input);
        let mut out = Vec::new();
        loop {
            let read = read_limited_line(&mut reader, cap).unwrap();
            let done = read == LineRead::Eof;
            out.push(read);
            if done {
                return out;
            }
        }
    }

    #[test]
    fn short_lines_read_back_exactly() {
        assert_eq!(
            read_all(b"alpha\nbeta\n", 16),
            vec![
                LineRead::Line("alpha".to_string()),
                LineRead::Line("beta".to_string()),
                LineRead::Eof,
            ]
        );
        // A line of exactly `cap` bytes is allowed.
        assert_eq!(
            read_all(b"12345678\n", 8),
            vec![LineRead::Line("12345678".to_string()), LineRead::Eof]
        );
    }

    #[test]
    fn oversized_lines_overflow_and_the_stream_recovers() {
        // The oversized line is consumed through its newline; the next line
        // reads normally — the connection-keeping guarantee.
        assert_eq!(
            read_all(b"123456789\nok\n", 8),
            vec![
                LineRead::Overflow,
                LineRead::Line("ok".to_string()),
                LineRead::Eof,
            ]
        );
        // Overflow without any newline drains to EOF.
        assert_eq!(
            read_all(b"123456789123", 8),
            vec![LineRead::Overflow, LineRead::Eof]
        );
    }

    #[test]
    fn lines_decode_utf8_and_invalid_bytes_lossily() {
        assert_eq!(
            read_all("é😀\n".as_bytes(), 16),
            vec![LineRead::Line("é😀".to_string()), LineRead::Eof]
        );
        assert_eq!(
            read_all(b"a\xffb\n", 16),
            vec![LineRead::Line("a\u{fffd}b".to_string()), LineRead::Eof]
        );
    }

    #[test]
    fn eof_mid_line_hands_back_the_partial_line() {
        assert_eq!(
            read_all(b"partial", 16),
            vec![LineRead::Line("partial".to_string()), LineRead::Eof]
        );
    }
}
