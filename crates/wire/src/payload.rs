//! The payload cursor every fixed-layout decoder reads through: the
//! client protocol's request/response payloads and the inter-site mesh's
//! protocol messages alike.

use crate::WireError;

/// Cursor over one frame's payload. Every read names the field it wants,
/// and every failure is a [`WireError::BadPayload`] tagged with the
/// frame's kind — short, trailing or invalid bytes never panic.
pub struct Reader<'a> {
    b: &'a [u8],
    kind: u8,
}

impl<'a> Reader<'a> {
    /// Reads `payload`, the payload of a frame of kind `kind`.
    pub fn new(kind: u8, payload: &'a [u8]) -> Self {
        Reader { b: payload, kind }
    }

    /// A [`WireError::BadPayload`] for this frame.
    pub fn bad(&self, detail: &'static str) -> WireError {
        WireError::BadPayload { kind: self.kind, detail }
    }

    fn take(&mut self, n: usize, what: &'static str) -> Result<&'a [u8], WireError> {
        if self.b.len() < n {
            return Err(self.bad(what));
        }
        let (head, rest) = self.b.split_at(n);
        self.b = rest;
        Ok(head)
    }

    /// One byte.
    pub fn u8(&mut self, what: &'static str) -> Result<u8, WireError> {
        Ok(self.take(1, what)?[0])
    }

    /// A big-endian `u32`.
    pub fn u32(&mut self, what: &'static str) -> Result<u32, WireError> {
        let b = self.take(4, what)?;
        Ok(u32::from_be_bytes([b[0], b[1], b[2], b[3]]))
    }

    /// A big-endian `u64`.
    pub fn u64(&mut self, what: &'static str) -> Result<u64, WireError> {
        let b = self.take(8, what)?;
        Ok(u64::from_be_bytes([b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7]]))
    }

    /// A big-endian two's-complement `i64`.
    pub fn i64(&mut self, what: &'static str) -> Result<i64, WireError> {
        Ok(self.u64(what)? as i64)
    }

    /// A bool byte: `0` or `1`, anything else is `"bad bool"`.
    pub fn bool(&mut self, what: &'static str) -> Result<bool, WireError> {
        match self.u8(what)? {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err(self.bad("bad bool")),
        }
    }

    /// A `u32` element count for a vector whose elements take at least
    /// `elem_len` bytes each. A count the rest of the payload cannot hold
    /// fails here, before the caller allocates for it.
    pub fn count(&mut self, elem_len: usize) -> Result<usize, WireError> {
        let n = self.u32("vector length")? as usize;
        if n.saturating_mul(elem_len) > self.b.len() {
            return Err(self.bad("vector length exceeds payload"));
        }
        Ok(n)
    }

    /// Consumes the rest of the payload as UTF-8.
    pub fn rest_utf8(&mut self) -> Result<String, WireError> {
        let s = std::str::from_utf8(self.b).map_err(|_| self.bad("non-utf8 string"))?.to_string();
        self.b = &[];
        Ok(s)
    }

    /// Checks that every payload byte was consumed.
    pub fn done(&self) -> Result<(), WireError> {
        if self.b.is_empty() {
            Ok(())
        } else {
            Err(self.bad("trailing payload bytes"))
        }
    }
}
