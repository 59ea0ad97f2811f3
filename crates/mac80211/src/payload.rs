//! Shared, immutable frame bodies.
//!
//! The MAC queues, fragments, retries and aggregates MSDUs whose bytes
//! it never rewrites, so a [`Frame`](crate::frame::Frame) body is a
//! [`Payload`]: a window onto reference-counted bytes. Cloning one
//! bumps a count and slicing one copies nothing, so a traffic builder
//! can stage a whole backlog behind one allocation, a fragment can be
//! a window onto its MSDU, and a de-aggregated MPDU a window onto its
//! aggregate. Code that produces bytes fills a `Vec<u8>` and converts
//! it; there is no mutable access.

use std::fmt;
use std::ops::{Deref, Range};
use std::sync::Arc;

/// An immutable byte slice sharing reference-counted storage: the
/// bytes `start..end` of a shared buffer (24 bytes, the size of the
/// `Vec<u8>` it stands in for). An empty payload holds no buffer, so
/// control frames allocate nothing for their bodies.
///
/// Equality compares bytes, and `Debug` prints what `Vec<u8>`'s does.
#[derive(Clone, Default)]
pub struct Payload {
    bytes: Option<Arc<[u8]>>,
    start: u32,
    end: u32,
}

impl Payload {
    /// Number of bytes in the window.
    pub fn len(&self) -> usize {
        (self.end - self.start) as usize
    }

    /// `true` for a zero-length payload.
    pub fn is_empty(&self) -> bool {
        self.start == self.end
    }

    /// The sub-window `range` (relative to this payload), sharing this
    /// payload's storage.
    ///
    /// # Panics
    ///
    /// If `range` is decreasing or ends past [`len`](Self::len), as
    /// slice indexing would.
    pub fn slice(&self, range: Range<usize>) -> Payload {
        assert!(
            range.start <= range.end && range.end <= self.len(),
            "payload range {range:?} out of bounds for length {}",
            self.len()
        );
        if range.is_empty() {
            return Payload::default();
        }
        Payload {
            bytes: self.bytes.clone(),
            start: self.start + range.start as u32,
            end: self.start + range.end as u32,
        }
    }
}

impl Deref for Payload {
    type Target = [u8];

    fn deref(&self) -> &[u8] {
        match &self.bytes {
            Some(b) => &b[self.start as usize..self.end as usize],
            None => &[],
        }
    }
}

impl AsRef<[u8]> for Payload {
    fn as_ref(&self) -> &[u8] {
        self
    }
}

impl From<&[u8]> for Payload {
    fn from(s: &[u8]) -> Payload {
        if s.is_empty() {
            return Payload::default();
        }
        let end = u32::try_from(s.len()).expect("a frame body fits in 4 GiB");
        Payload {
            bytes: Some(Arc::from(s)),
            start: 0,
            end,
        }
    }
}

impl From<Vec<u8>> for Payload {
    fn from(v: Vec<u8>) -> Payload {
        Payload::from(&v[..])
    }
}

impl<T: AsRef<[u8]> + ?Sized> PartialEq<T> for Payload {
    fn eq(&self, other: &T) -> bool {
        **self == *other.as_ref()
    }
}

impl Eq for Payload {}

impl fmt::Debug for Payload {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(&**self, f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bytes(n: usize) -> Vec<u8> {
        (0..n).map(|i| (i * 7 + 1) as u8).collect()
    }

    #[test]
    fn clone_and_slice_share_storage() {
        let p = Payload::from(bytes(100));
        let c = p.clone();
        assert_eq!(c.as_ptr(), p.as_ptr(), "a clone is the same bytes");
        let s = p.slice(10..40);
        assert_eq!(s.len(), 30);
        assert_eq!(s.as_ptr() as usize - p.as_ptr() as usize, 10);
        assert_eq!(s, &bytes(100)[10..40]);
        // A slice of a slice is relative to its parent window.
        let ss = s.slice(5..10);
        assert_eq!(ss.as_ptr() as usize - p.as_ptr() as usize, 15);
        assert_eq!(ss, &bytes(100)[15..20]);
        assert_eq!(p.slice(100..100), Payload::default());
        assert!(p.slice(3..3).is_empty());
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn slice_past_the_end_panics() {
        let _ = Payload::from(bytes(8)).slice(4..9);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn slice_of_a_slice_cannot_reach_past_its_window() {
        let _ = Payload::from(bytes(8)).slice(2..4).slice(0..3);
    }

    #[test]
    #[allow(clippy::reversed_empty_ranges)]
    #[should_panic(expected = "out of bounds")]
    fn decreasing_slice_panics() {
        let _ = Payload::from(bytes(8)).slice(5..4);
    }

    #[test]
    fn debug_and_equality_match_vec() {
        for v in [Vec::new(), vec![0u8], bytes(9)] {
            let p = Payload::from(v.clone());
            assert_eq!(format!("{p:?}"), format!("{v:?}"));
            assert_eq!(format!("{p:#?}"), format!("{v:#?}"));
            assert_eq!(p, v);
            assert_eq!(p, Payload::from(&v[..]));
            assert_eq!(p.len(), v.len());
            assert_eq!(p.is_empty(), v.is_empty());
        }
        let p = Payload::from(bytes(9));
        assert_eq!(
            format!("{:?}", p.slice(2..5)),
            format!("{:?}", &bytes(9)[2..5])
        );
        // Equality is by bytes, not by storage.
        assert_eq!(p.slice(0..1), Payload::from(vec![1u8]));
        assert_ne!(p.slice(0..2), p.slice(1..3));
    }

    #[test]
    fn payload_is_the_size_of_a_vec_and_shareable_across_threads() {
        fn send_sync<T: Send + Sync>() {}
        send_sync::<Payload>();
        assert_eq!(
            std::mem::size_of::<Payload>(),
            std::mem::size_of::<Vec<u8>>()
        );
    }
}
