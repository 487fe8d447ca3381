//! Offline stand-in for the `bytes` crate.
//!
//! The build container has no access to crates.io, so the workspace
//! vendors the API subset the GDSII writer uses: the `BufMut`
//! put-methods (big-endian, matching upstream defaults) on `Vec<u8>`,
//! as upstream implements them.

// Vendored offline stand-in; exempt from the workspace lint gate.
#![allow(clippy::all)]

/// Append-only byte sink, mirroring `bytes::BufMut` (subset).
pub trait BufMut {
    /// Appends raw bytes.
    fn put_slice(&mut self, src: &[u8]);

    /// Appends one byte.
    #[inline]
    fn put_u8(&mut self, v: u8) {
        self.put_slice(&[v]);
    }

    /// Appends a big-endian `u16`.
    #[inline]
    fn put_u16(&mut self, v: u16) {
        self.put_slice(&v.to_be_bytes());
    }

    /// Appends a big-endian `i16`.
    #[inline]
    fn put_i16(&mut self, v: i16) {
        self.put_slice(&v.to_be_bytes());
    }

    /// Appends a big-endian `i32`.
    #[inline]
    fn put_i32(&mut self, v: i32) {
        self.put_slice(&v.to_be_bytes());
    }
}

impl BufMut for Vec<u8> {
    #[inline]
    fn put_slice(&mut self, src: &[u8]) {
        self.extend_from_slice(src);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn big_endian_puts() {
        let mut b: Vec<u8> = Vec::new();
        b.put_u16(6);
        b.put_u8(0x00);
        b.put_u8(0x02);
        b.put_i16(600);
        b.put_i32(-2);
        b.put_slice(b"ab");
        assert_eq!(
            b,
            vec![0x00, 0x06, 0x00, 0x02, 0x02, 0x58, 0xFF, 0xFF, 0xFF, 0xFE, b'a', b'b']
        );
    }
}
