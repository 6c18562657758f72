//! 64-byte-aligned heap buffers for SIMD-facing data.
//!
//! A vector load from a buffer that is only element-aligned can
//! straddle a cache-line boundary and cost two line fills.
//! `Vec<f64>`/`Vec<u32>` guarantee no more than element alignment, so the
//! structures the vector kernels stream over — FFT twiddle tables,
//! [`crate::lwe::LweSoa`] mask/body slabs, and the batched transform
//! slots — allocate through [`AlignedBuf`] instead, which pins the base
//! address to a 64-byte boundary (one cache line).
//!
//! The type is deliberately small: fixed 64-byte alignment, zero-filled
//! growth, `Deref` to a slice. It is not a general `Vec` replacement —
//! no push/pop, no spare capacity tracking beyond what `resize` needs.

use std::alloc::{alloc_zeroed, dealloc, handle_alloc_error, Layout};
use std::fmt;
use std::marker::PhantomData;
use std::ops::{Deref, DerefMut};
use std::ptr::NonNull;

/// Alignment (bytes) of every [`AlignedBuf`] allocation: one cache line.
pub const SIMD_ALIGN: usize = 64;

/// A heap slice of `T` whose base address is 64-byte aligned.
///
/// `T` is restricted to `Copy` plain-old-data in practice (`f64`, `u32`,
/// [`crate::torus::Torus32`]); new storage is zero-filled, which is the
/// all-zero bit pattern these types expect.
///
/// Invariant every raw access below relies on, kept by `resize_zeroed`
/// and `release` (the only writers of the fields): when `cap > 0`, `ptr`
/// is the start of a live allocation of `layout(cap)`, all `cap` elements
/// of it initialized (zeroed at allocation, written only through
/// `&mut [T]` since); `len <= cap`; when `cap == 0`, `len == 0` and `ptr`
/// is dangling but aligned.
pub struct AlignedBuf<T: Copy + Default> {
    ptr: NonNull<T>,
    len: usize,
    cap: usize,
    _marker: PhantomData<T>,
}

// SAFETY: the buffer owns its allocation exactly like Vec<T> does — `ptr`
// is never shared, `len`/`cap` are plain integers — so it is as `Send` and
// as `Sync` as the `T`s it holds.
unsafe impl<T: Copy + Default + Send> Send for AlignedBuf<T> {}
unsafe impl<T: Copy + Default + Sync> Sync for AlignedBuf<T> {}

impl<T: Copy + Default> AlignedBuf<T> {
    fn layout(cap: usize) -> Layout {
        let align = SIMD_ALIGN.max(std::mem::align_of::<T>());
        Layout::from_size_align(cap * std::mem::size_of::<T>(), align)
            .expect("aligned buffer layout overflow")
    }

    /// An empty buffer (no allocation).
    pub const fn new() -> Self {
        AlignedBuf { ptr: NonNull::dangling(), len: 0, cap: 0, _marker: PhantomData }
    }

    /// A zero-filled buffer of `len` elements.
    pub fn zeroed(len: usize) -> Self {
        let mut buf = Self::new();
        buf.resize_zeroed(len);
        buf
    }

    /// A buffer holding a copy of `src`.
    pub fn from_slice(src: &[T]) -> Self {
        let mut buf = Self::zeroed(src.len());
        buf.copy_from_slice(src);
        buf
    }

    /// Resizes to `len` elements. Shrinking keeps the allocation; growth
    /// reallocates (zero-filled) and copies the prefix. All resulting
    /// storage stays 64-byte aligned.
    pub fn resize_zeroed(&mut self, len: usize) {
        if len <= self.cap {
            // Growing within capacity re-exposes memory that was either
            // freshly zeroed or previously initialized; zero it so the
            // contents are deterministic.
            if len > self.len {
                // SAFETY: `self.len < len <= cap`, so the range written
                // lies inside the allocation.
                unsafe {
                    std::ptr::write_bytes(self.ptr.as_ptr().add(self.len), 0, len - self.len);
                }
            }
            self.len = len;
            return;
        }
        let layout = Self::layout(len);
        let raw = if layout.size() == 0 {
            NonNull::dangling()
        } else {
            // SAFETY: `layout` has a non-zero size (checked just above).
            let p = unsafe { alloc_zeroed(layout) } as *mut T;
            match NonNull::new(p) {
                Some(nn) => nn,
                None => handle_alloc_error(layout),
            }
        };
        // SAFETY: the old allocation holds `self.len` initialized elements,
        // the new one has room for `len > cap >= self.len`, and a fresh
        // allocation cannot overlap a live one (with `self.len == 0` both
        // may dangle, and a zero-length copy only needs alignment).
        unsafe {
            std::ptr::copy_nonoverlapping(self.ptr.as_ptr(), raw.as_ptr(), self.len);
        }
        self.release();
        self.ptr = raw;
        self.len = len;
        self.cap = len;
        debug_assert!(self.is_aligned());
    }

    /// Sets every element to zero without changing the length.
    pub fn fill_zero(&mut self) {
        // SAFETY: `len <= cap` elements from `ptr` are in the allocation.
        unsafe { std::ptr::write_bytes(self.ptr.as_ptr(), 0, self.len) }
    }

    /// Whether the base pointer meets [`SIMD_ALIGN`] (vacuously true for
    /// empty buffers). Debug builds assert this after every allocation.
    pub fn is_aligned(&self) -> bool {
        self.cap == 0 || (self.ptr.as_ptr() as usize).is_multiple_of(SIMD_ALIGN)
    }

    fn release(&mut self) {
        if self.cap != 0 {
            // SAFETY: `cap != 0`, so `ptr` came from `alloc_zeroed` with
            // exactly `layout(cap)` and has not been freed.
            unsafe { dealloc(self.ptr.as_ptr() as *mut u8, Self::layout(self.cap)) }
        }
        self.ptr = NonNull::dangling();
        self.len = 0;
        self.cap = 0;
    }
}

impl<T: Copy + Default> Drop for AlignedBuf<T> {
    fn drop(&mut self) {
        self.release();
    }
}

impl<T: Copy + Default> Default for AlignedBuf<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T: Copy + Default> Clone for AlignedBuf<T> {
    fn clone(&self) -> Self {
        Self::from_slice(self)
    }

    fn clone_from(&mut self, source: &Self) {
        self.resize_zeroed(source.len);
        self.copy_from_slice(source);
    }
}

impl<T: Copy + Default> Deref for AlignedBuf<T> {
    type Target = [T];

    fn deref(&self) -> &[T] {
        // SAFETY: `len` initialized elements from an aligned `ptr` (see
        // the type's invariant), borrowed for as long as `self` is.
        unsafe { std::slice::from_raw_parts(self.ptr.as_ptr(), self.len) }
    }
}

impl<T: Copy + Default> DerefMut for AlignedBuf<T> {
    fn deref_mut(&mut self) -> &mut [T] {
        // SAFETY: as in `deref`, and `&mut self` makes the borrow unique.
        unsafe { std::slice::from_raw_parts_mut(self.ptr.as_ptr(), self.len) }
    }
}

impl<T: Copy + Default + fmt::Debug> fmt::Debug for AlignedBuf<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

impl<T: Copy + Default + PartialEq> PartialEq for AlignedBuf<T> {
    fn eq(&self, other: &Self) -> bool {
        self[..] == other[..]
    }
}

impl<T: Copy + Default + Eq> Eq for AlignedBuf<T> {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn allocations_are_64_byte_aligned() {
        for len in [1usize, 3, 64, 511, 4096] {
            let buf = AlignedBuf::<f64>::zeroed(len);
            assert!(buf.is_aligned(), "len {len}");
            assert_eq!(buf.len(), len);
            assert!(buf.iter().all(|&x| x == 0.0));
        }
        let buf = AlignedBuf::<u32>::zeroed(17);
        assert_eq!((buf.as_ptr() as usize) % SIMD_ALIGN, 0);
    }

    #[test]
    fn resize_preserves_prefix_and_zeroes_growth() {
        let mut buf = AlignedBuf::<u32>::from_slice(&[1, 2, 3]);
        buf.resize_zeroed(6);
        assert_eq!(&buf[..], &[1, 2, 3, 0, 0, 0]);
        assert!(buf.is_aligned());
        // Shrink then regrow within capacity: re-exposed tail is zeroed.
        buf[5] = 9;
        buf.resize_zeroed(2);
        assert_eq!(&buf[..], &[1, 2]);
        buf.resize_zeroed(6);
        assert_eq!(&buf[..], &[1, 2, 0, 0, 0, 0]);
    }

    #[test]
    fn clone_and_eq() {
        let a = AlignedBuf::<f64>::from_slice(&[1.5, -2.25, 0.0]);
        let b = a.clone();
        assert!(b.is_aligned());
        assert_eq!(a, b);
        let mut c = AlignedBuf::new();
        c.clone_from(&a);
        assert_eq!(c, a);
    }

    #[test]
    fn empty_buffer_is_fine() {
        let buf = AlignedBuf::<f64>::new();
        assert!(buf.is_empty());
        assert!(buf.is_aligned());
        let cloned = buf.clone();
        assert!(cloned.is_empty());
    }
}
