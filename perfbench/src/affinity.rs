//! CPU rotation for single-threaded measurements.
//!
//! On a shared host each CPU the process may use runs at its own,
//! drifting speed, and an unpinned single thread stays on one of them
//! for seconds at a time, so its median follows whichever CPU it caught.
//! A [`Rotation`] pins the calling thread to each allowed CPU in turn,
//! so a run samples every CPU about equally.  It is a no-op outside
//! Linux and where only one CPU is allowed.

/// Words in the CPU mask (glibc's `cpu_set_t`: 1024 CPUs).
const WORDS: usize = 16;

type Mask = [u64; WORDS];

#[cfg(target_os = "linux")]
extern "C" {
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
}

#[cfg(target_os = "linux")]
fn get_mask() -> Option<Mask> {
    let mut mask = [0; WORDS];
    // SAFETY: `mask` is a writable buffer of exactly the size passed;
    // pid 0 is the calling thread.
    let rc = unsafe { sched_getaffinity(0, std::mem::size_of::<Mask>(), mask.as_mut_ptr()) };
    (rc == 0).then_some(mask)
}

#[cfg(target_os = "linux")]
fn set_mask(mask: &Mask) -> bool {
    // SAFETY: `mask` is a readable buffer of exactly the size passed;
    // pid 0 is the calling thread.
    unsafe { sched_setaffinity(0, std::mem::size_of::<Mask>(), mask.as_ptr()) == 0 }
}

#[cfg(not(target_os = "linux"))]
fn get_mask() -> Option<Mask> {
    None
}

#[cfg(not(target_os = "linux"))]
fn set_mask(_: &Mask) -> bool {
    false
}

/// Pins the calling thread to one allowed CPU after another; restores
/// the thread's original CPU mask when dropped.
#[derive(Debug)]
pub struct Rotation {
    original: Mask,
    cpus: Vec<usize>,
    next: usize,
}

impl Rotation {
    /// A rotation over the calling thread's allowed CPUs, or `None`
    /// where there are fewer than two or the mask cannot be read.
    pub fn new() -> Option<Self> {
        let original = get_mask()?;
        let cpus: Vec<usize> = (0..WORDS * 64)
            .filter(|&c| original[c / 64] >> (c % 64) & 1 == 1)
            .collect();
        (cpus.len() > 1).then_some(Self {
            original,
            cpus,
            next: 0,
        })
    }

    /// Pin the calling thread to the next CPU in turn.
    pub fn advance(&mut self) {
        let cpu = self.cpus[self.next % self.cpus.len()];
        self.next += 1;
        let mut mask = [0; WORDS];
        mask[cpu / 64] = 1 << (cpu % 64);
        set_mask(&mask);
    }
}

impl Drop for Rotation {
    fn drop(&mut self) {
        set_mask(&self.original);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rotation_pins_and_restores() {
        let before = get_mask();
        if let Some(mut rotation) = Rotation::new() {
            let first = rotation.cpus[0];
            rotation.advance();
            let pinned = get_mask().expect("mask readable");
            assert_eq!(pinned[first / 64], 1 << (first % 64));
            drop(rotation);
        }
        assert_eq!(get_mask(), before);
    }
}
