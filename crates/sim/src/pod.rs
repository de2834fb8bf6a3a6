//! Minimal plain-old-data casting between byte buffers and typed slices.
//!
//! The simulated address spaces back application arrays with 8-byte-aligned
//! word buffers; workloads view windows of those buffers as `&mut [f64]`,
//! `&mut [u64]`, etc. A hand-rolled `Pod` trait keeps this dependency-free
//! (the approved crate list has no `bytemuck`) and keeps every `unsafe`
//! block in one audited module.

/// Types that are valid for any bit pattern and contain no padding.
///
/// # Safety
///
/// Implementors must be `#[repr(C)]`/primitive, have no invalid bit
/// patterns, no padding bytes, and alignment ≤ 8.
pub unsafe trait Pod: Copy + Send + Sync + 'static {}

unsafe impl Pod for u8 {}
unsafe impl Pod for i8 {}
unsafe impl Pod for u16 {}
unsafe impl Pod for i16 {}
unsafe impl Pod for u32 {}
unsafe impl Pod for i32 {}
unsafe impl Pod for u64 {}
unsafe impl Pod for i64 {}
unsafe impl Pod for f32 {}
unsafe impl Pod for f64 {}

/// Reinterpret a byte slice as a slice of `T`.
///
/// Panics if the pointer is misaligned for `T` or the length is not a
/// multiple of `size_of::<T>()`.
pub fn cast_slice<T: Pod>(bytes: &[u8]) -> &[T] {
    let size = std::mem::size_of::<T>();
    let align = std::mem::align_of::<T>();
    assert_eq!(
        bytes.as_ptr() as usize % align,
        0,
        "misaligned cast to {}",
        std::any::type_name::<T>()
    );
    assert_eq!(
        bytes.len() % size,
        0,
        "byte length {} not a multiple of {}",
        bytes.len(),
        size
    );
    // SAFETY: alignment and size divisibility checked above; `T: Pod`
    // guarantees all bit patterns are valid and there is no padding.
    unsafe { std::slice::from_raw_parts(bytes.as_ptr().cast::<T>(), bytes.len() / size) }
}

/// Reinterpret a mutable byte slice as a mutable slice of `T`.
///
/// Panics under the same conditions as [`cast_slice`].
pub fn cast_slice_mut<T: Pod>(bytes: &mut [u8]) -> &mut [T] {
    let size = std::mem::size_of::<T>();
    let align = std::mem::align_of::<T>();
    assert_eq!(
        bytes.as_ptr() as usize % align,
        0,
        "misaligned cast to {}",
        std::any::type_name::<T>()
    );
    assert_eq!(
        bytes.len() % size,
        0,
        "byte length {} not a multiple of {}",
        bytes.len(),
        size
    );
    // SAFETY: as in `cast_slice`, plus exclusive access through `&mut`.
    unsafe { std::slice::from_raw_parts_mut(bytes.as_mut_ptr().cast::<T>(), bytes.len() / size) }
}

/// View a value's bytes (little-endian in-memory representation).
pub fn bytes_of<T: Pod>(v: &T) -> &[u8] {
    // SAFETY: `T: Pod` has no padding, so all bytes are initialized.
    unsafe { std::slice::from_raw_parts((v as *const T).cast::<u8>(), std::mem::size_of::<T>()) }
}

/// View a slice's bytes (little-endian in-memory representation).
pub fn slice_bytes<T: Pod>(s: &[T]) -> &[u8] {
    // SAFETY: `T: Pod` has no padding, so all bytes are initialized, and
    // `u8` has alignment 1.
    unsafe { std::slice::from_raw_parts(s.as_ptr().cast::<u8>(), std::mem::size_of_val(s)) }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_f64() {
        let mut words = vec![0u64; 4];
        // SAFETY: a u64 buffer is trivially viewable as bytes.
        let bytes: &mut [u8] =
            unsafe { std::slice::from_raw_parts_mut(words.as_mut_ptr().cast(), 32) };
        let floats = cast_slice_mut::<f64>(bytes);
        floats[0] = 1.25;
        floats[3] = -7.5;
        // SAFETY: as above.
        let ro_bytes: &[u8] = unsafe { std::slice::from_raw_parts(words.as_ptr().cast(), 32) };
        let ro = cast_slice::<f64>(ro_bytes);
        assert_eq!(ro[0], 1.25);
        assert_eq!(ro[3], -7.5);
    }

    #[test]
    #[should_panic(expected = "not a multiple")]
    fn bad_length_panics() {
        let words = [0u64; 1];
        // SAFETY: aligned u64 buffer viewed as 7 bytes (not a u64 multiple).
        let b: &[u8] = unsafe { std::slice::from_raw_parts(words.as_ptr().cast(), 7) };
        let _ = cast_slice::<u64>(b);
    }

    #[test]
    fn bytes_of_u32() {
        let v = 0x01020304u32;
        let b = bytes_of(&v);
        assert_eq!(b.len(), 4);
        assert_eq!(u32::from_ne_bytes([b[0], b[1], b[2], b[3]]), v);
    }
}
