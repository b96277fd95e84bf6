//! A small, self-contained binary codec.
//!
//! Everything persisted (log records, savepoint images, manifests) goes
//! through [`Encoder`]/[`Decoder`]: little-endian fixed-width integers,
//! length-prefixed byte strings, and a tagged [`Value`] encoding. No external
//! serialization dependency — the format is explicit and versionable.

use hana_common::{DataType, HanaError, Result, Value};

/// Append-only binary writer.
#[derive(Debug, Default)]
pub struct Encoder {
    buf: Vec<u8>,
}

impl Encoder {
    /// A fresh encoder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Finish and take the bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Current length.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// True if nothing was written.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Write a single byte.
    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Write a little-endian u16.
    pub fn u16(&mut self, v: u16) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Write a little-endian u32.
    pub fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Write a little-endian u64.
    pub fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Write a little-endian i64.
    pub fn i64(&mut self, v: i64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Write an f64 by bit pattern.
    pub fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    /// Write a bool as one byte.
    pub fn bool(&mut self, v: bool) {
        self.u8(v as u8);
    }

    /// Write length-prefixed bytes.
    pub fn bytes(&mut self, v: &[u8]) {
        self.u32(v.len() as u32);
        self.buf.extend_from_slice(v);
    }

    /// Write a length-prefixed UTF-8 string.
    pub fn str(&mut self, v: &str) {
        self.bytes(v.as_bytes());
    }

    /// Write a tagged [`Value`].
    pub fn value(&mut self, v: &Value) {
        match v {
            Value::Null => self.u8(0),
            Value::Int(i) => {
                self.u8(1);
                self.i64(*i);
            }
            Value::Double(d) => {
                self.u8(2);
                self.f64(d.0);
            }
            Value::Str(s) => {
                self.u8(3);
                self.str(s);
            }
        }
    }

    /// Write a [`DataType`] tag.
    pub fn data_type(&mut self, t: DataType) {
        self.u8(match t {
            DataType::Int => 1,
            DataType::Double => 2,
            DataType::Str => 3,
        });
    }
}

/// Sequential binary reader over a byte slice.
pub struct Decoder<'a> {
    data: &'a [u8],
    pos: usize,
}

fn eof() -> HanaError {
    HanaError::Persist("unexpected end of encoded data".into())
}

impl<'a> Decoder<'a> {
    /// Read from the start of `data`.
    pub fn new(data: &'a [u8]) -> Self {
        Decoder { data, pos: 0 }
    }

    /// Bytes remaining.
    pub fn remaining(&self) -> usize {
        self.data.len() - self.pos
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8]> {
        if self.remaining() < n {
            return Err(eof());
        }
        let s = &self.data[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    fn array<const N: usize>(&mut self) -> Result<[u8; N]> {
        let s = self.take(N)?;
        let mut a = [0u8; N];
        a.copy_from_slice(s);
        Ok(a)
    }

    /// Read one byte.
    pub fn u8(&mut self) -> Result<u8> {
        Ok(self.take(1)?[0])
    }

    /// Read a little-endian u16.
    pub fn u16(&mut self) -> Result<u16> {
        Ok(u16::from_le_bytes(self.array()?))
    }

    /// Read a little-endian u32.
    pub fn u32(&mut self) -> Result<u32> {
        Ok(u32::from_le_bytes(self.array()?))
    }

    /// Read a little-endian u64.
    pub fn u64(&mut self) -> Result<u64> {
        Ok(u64::from_le_bytes(self.array()?))
    }

    /// Read a little-endian i64.
    pub fn i64(&mut self) -> Result<i64> {
        Ok(i64::from_le_bytes(self.array()?))
    }

    /// Read an f64 by bit pattern.
    pub fn f64(&mut self) -> Result<f64> {
        Ok(f64::from_bits(self.u64()?))
    }

    /// Read a bool.
    pub fn bool(&mut self) -> Result<bool> {
        Ok(self.u8()? != 0)
    }

    /// Read length-prefixed bytes.
    pub fn bytes(&mut self) -> Result<&'a [u8]> {
        let n = self.u32()? as usize;
        self.take(n)
    }

    /// Read a length-prefixed UTF-8 string.
    pub fn str(&mut self) -> Result<String> {
        let b = self.bytes()?;
        String::from_utf8(b.to_vec())
            .map_err(|_| HanaError::Persist("invalid UTF-8 in encoded string".into()))
    }

    /// Read a tagged [`Value`].
    pub fn value(&mut self) -> Result<Value> {
        Ok(match self.u8()? {
            0 => Value::Null,
            1 => Value::Int(self.i64()?),
            2 => Value::double(self.f64()?),
            3 => Value::Str(self.str()?),
            t => return Err(HanaError::Persist(format!("unknown value tag {t}"))),
        })
    }

    /// Read a [`DataType`] tag.
    pub fn data_type(&mut self) -> Result<DataType> {
        Ok(match self.u8()? {
            1 => DataType::Int,
            2 => DataType::Double,
            3 => DataType::Str,
            t => return Err(HanaError::Persist(format!("unknown type tag {t}"))),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalar_round_trips() {
        let mut e = Encoder::new();
        e.u8(7);
        e.u16(512);
        e.u32(70_000);
        e.u64(u64::MAX - 1);
        e.i64(-42);
        e.f64(2.5);
        e.bool(true);
        e.str("Los Gatos");
        e.bytes(&[1, 2, 3]);
        let bytes = e.into_bytes();
        let mut d = Decoder::new(&bytes);
        assert_eq!(d.u8().unwrap(), 7);
        assert_eq!(d.u16().unwrap(), 512);
        assert_eq!(d.u32().unwrap(), 70_000);
        assert_eq!(d.u64().unwrap(), u64::MAX - 1);
        assert_eq!(d.i64().unwrap(), -42);
        assert_eq!(d.f64().unwrap(), 2.5);
        assert!(d.bool().unwrap());
        assert_eq!(d.str().unwrap(), "Los Gatos");
        assert_eq!(d.bytes().unwrap(), &[1, 2, 3]);
        assert_eq!(d.remaining(), 0);
    }

    #[test]
    fn value_round_trips() {
        let vals = vec![
            Value::Null,
            Value::Int(i64::MIN),
            Value::double(f64::NAN),
            Value::str("héllo"),
        ];
        let mut e = Encoder::new();
        for v in &vals {
            e.value(v);
        }
        let bytes = e.into_bytes();
        let mut d = Decoder::new(&bytes);
        for v in &vals {
            let got = d.value().unwrap();
            // NaN compares equal under OrderedF64 semantics.
            assert_eq!(&got, v);
        }
    }

    #[test]
    fn truncated_input_errors() {
        let mut e = Encoder::new();
        e.u64(1);
        let bytes = e.into_bytes();
        let mut d = Decoder::new(&bytes[..4]);
        assert!(d.u64().is_err());
    }

    #[test]
    fn bad_tags_error() {
        let mut d = Decoder::new(&[9]);
        assert!(d.value().is_err());
        let mut d = Decoder::new(&[9]);
        assert!(d.data_type().is_err());
    }
}
