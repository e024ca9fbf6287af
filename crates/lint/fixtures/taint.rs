//! Seeded wire-taint violations for `taint.wire-alloc` and
//! `taint.wire-arith` (semantic lint fixture — lexed and parsed under a
//! wire-scope path, never compiled).
//!
//! The unmarked functions at the bottom are the sanitizer vocabulary:
//! every recognized validation idiom must keep its flow silent, pinning
//! the false-positive rate alongside the hit rate.

// ---------------------------------------------------------------------------
// taint.wire-alloc — peer-controlled value reaches an allocation size
// ---------------------------------------------------------------------------

/// A little-endian count straight off the wire sizes a Vec.
fn unchecked_capacity(b: [u8; 4]) -> Vec<u8> {
    let n = u32::from_le_bytes(b) as usize;
    Vec::with_capacity(n) //~ taint.wire-alloc
}

/// A `read_exact` buffer is peer bytes; decoding it taints the length.
fn unchecked_vec_macro(r: &mut R) -> Vec<u8> {
    let mut hdr = [0u8; 4];
    r.read_exact(&mut hdr);
    let n = u32::from_le_bytes(hdr) as usize;
    vec![0u8; n] //~ taint.wire-alloc
}

/// Destructuring a wire enum arm binds peer-controlled fields.
fn unchecked_match_binding(msg: Message) -> Vec<u8> {
    match msg {
        Message::StreamRequest { frames } => {
            Vec::with_capacity(frames as usize) //~ taint.wire-alloc
        }
        _ => Vec::new(),
    }
}

/// A wire count bounding a loop is a resource sink too.
fn unchecked_loop_bound(b: [u8; 4]) -> u64 {
    let n = u32::from_le_bytes(b);
    let mut acc = 0u64;
    for _ in 0..n { //~ taint.wire-alloc
        acc += 1;
    }
    acc
}

/// Taint crosses calls: the callee allocates from its parameter
/// unconditionally, so the call site owns the finding.
fn grow(n: usize) -> Vec<u8> {
    Vec::with_capacity(n)
}

fn unchecked_interprocedural(b: [u8; 4]) -> Vec<u8> {
    let n = u32::from_le_bytes(b) as usize;
    grow(n) //~ taint.wire-alloc
}

// ---------------------------------------------------------------------------
// taint.wire-arith — overflowable arithmetic on wire operands feeding a sink
// ---------------------------------------------------------------------------

/// Arithmetic inside the sink argument: both the allocation and the
/// overflowable product are flagged on the same line.
fn arith_in_sink(b: [u8; 4]) -> Vec<u8> {
    let n = u32::from_le_bytes(b) as usize;
    Vec::with_capacity(n * 8) //~ taint.wire-alloc //~ taint.wire-arith
}

/// A wire product bound in a `let`, then used to size a buffer.
fn arith_via_binding(b: [u8; 8]) -> Vec<u8> {
    let n = u64::from_le_bytes(b);
    let total = (n * 8) as usize; //~ taint.wire-arith
    Vec::with_capacity(total) //~ taint.wire-alloc
}

/// A `while` header that bounds the count only from below sanitizes
/// nothing inside the loop.
fn lower_bounded_while(b: [u8; 4]) -> Vec<u8> {
    let n = u32::from_le_bytes(b) as usize;
    let mut buf = Vec::new();
    while n > 0 {
        buf = Vec::with_capacity(n); //~ taint.wire-alloc
    }
    buf
}

// ---------------------------------------------------------------------------
// Sanitizers — recognized validation idioms: must stay silent
// ---------------------------------------------------------------------------

/// Upper-bound exit guard before the allocation.
fn guarded_capacity(b: [u8; 4]) -> Vec<u8> {
    let n = u32::from_le_bytes(b) as usize;
    if n > MAX_COUNT {
        return Vec::new();
    }
    Vec::with_capacity(n)
}

/// Trailing `.min(const)` clamp on the decoded value.
fn clamped_capacity(b: [u8; 4]) -> Vec<u8> {
    let n = (u32::from_le_bytes(b) as usize).min(64);
    Vec::with_capacity(n)
}

/// Exact-equality exit guard (count-matches-payload idiom).
fn exact_len_checked(b: [u8; 4], want: usize) -> Vec<u8> {
    let n = u32::from_le_bytes(b) as usize;
    if n != want {
        return Vec::new();
    }
    Vec::with_capacity(n)
}

/// A `while` header that upper-bounds the count clears it inside the
/// loop body, like a non-exit `if`.
fn bounded_while(b: [u8; 4]) -> Vec<u8> {
    let n = u32::from_le_bytes(b) as usize;
    let mut buf = Vec::new();
    while n < MAX_COUNT {
        buf = Vec::with_capacity(n);
    }
    buf
}

/// `Reader::count` validates counts against the remaining payload; its
/// result is trusted.
fn trusted_reader_count(payload: &[u8]) -> Result<Vec<u8>, E> {
    let mut r = Reader::new(payload);
    let n = r.count(8, "samples")?;
    Ok(Vec::with_capacity(n))
}

/// The callee validates its own parameter, so the call is clean.
fn guarded_callee(n: usize) -> Vec<u8> {
    if n > MAX_N {
        return Vec::new();
    }
    Vec::with_capacity(n)
}

fn interprocedural_guarded(b: [u8; 4]) -> Vec<u8> {
    let n = u32::from_le_bytes(b) as usize;
    guarded_callee(n)
}

/// Reassignment from a clean operand clears the binding.
fn reassigned_clean(b: [u8; 4]) -> Vec<u8> {
    let mut n = u32::from_le_bytes(b) as usize;
    n = 4;
    Vec::with_capacity(n)
}

/// Constructing a wire enum binds nothing — only destructuring taints.
fn construction_is_clean(token: u64) -> Message {
    let reply = Message::Pong { token };
    let _ = Vec::<u8>::with_capacity(token as usize);
    reply
}

// ---------------------------------------------------------------------------
// Call resolution — the one rule every call-graph pass shares
// (DESIGN.md §9.2)
// ---------------------------------------------------------------------------

pub struct Pool;
pub struct Arena;

impl Pool {
    /// Allocates from its parameter unconditionally.
    fn reserve_for(n: usize) -> Vec<u8> {
        Vec::with_capacity(n)
    }

    fn grow_self(&self, n: usize) -> Vec<u8> {
        Vec::with_capacity(n)
    }

    /// `Self::name` binds to this impl's fn.
    fn self_qualified(b: [u8; 4]) -> Vec<u8> {
        let n = u32::from_le_bytes(b) as usize;
        Self::reserve_for(n) //~ taint.wire-alloc
    }
}

impl Arena {
    /// Same name, but validates its parameter first.
    fn reserve_for(n: usize) -> Vec<u8> {
        if n > MAX_N {
            return Vec::new();
        }
        Vec::with_capacity(n)
    }
}

/// `Type::name` binds exactly, although the bare `reserve_for` is
/// defined twice.
fn type_qualified(b: [u8; 4]) -> Vec<u8> {
    let n = u32::from_le_bytes(b) as usize;
    Pool::reserve_for(n) //~ taint.wire-alloc
}

fn type_qualified_guarded(b: [u8; 4]) -> Vec<u8> {
    let n = u32::from_le_bytes(b) as usize;
    Arena::reserve_for(n)
}

/// An ambiguous bare name binds nothing.
fn ambiguous_bare(b: [u8; 4]) -> Vec<u8> {
    let n = u32::from_le_bytes(b) as usize;
    reserve_for(n)
}

fn grow_free(n: usize) -> Vec<u8> {
    Vec::with_capacity(n)
}

/// Method syntax cannot call a free fn.
fn method_form_call(pool: &Pool, b: [u8; 4]) -> Vec<u8> {
    let n = u32::from_le_bytes(b) as usize;
    pool.grow_free(n)
}

/// A bare call cannot call a fn that takes `self`.
fn bare_form_call(b: [u8; 4]) -> Vec<u8> {
    let n = u32::from_le_bytes(b) as usize;
    grow_self(n)
}


impl Pool {
    fn grow_second(&self, _hint: usize, cap: usize) -> Vec<u8> {
        Vec::with_capacity(cap)
    }
}

/// `Type::method(&x, …)` passes `self` as its first argument, so
/// parameter k binds argument k + 1: `n` reaches `_hint`, which feeds no
/// sink.
fn receiver_as_argument(pool: &Pool, b: [u8; 4]) -> Vec<u8> {
    let n = u32::from_le_bytes(b) as usize;
    Pool::grow_second(pool, n, 64)
}

/// The same shift binds `n` to `cap`, which sizes the allocation.
fn receiver_as_argument_reaches_sink(pool: &Pool, b: [u8; 4]) -> Vec<u8> {
    let n = u32::from_le_bytes(b) as usize;
    Pool::grow_second(pool, 0, n) //~ taint.wire-alloc
}

// ---------------------------------------------------------------------------
// Known misses — the two approximations of DESIGN.md §9.4. Each flow
// below lets a peer size a buffer, yet neither is flagged today, so the
// lines carry no marker; a fix to either approximation adds it.
// ---------------------------------------------------------------------------

/// Approximation: closure parameters carry no taint. The wire count
/// reaches the allocation through the closure's `k`.
fn closure_parameter_flow(b: [u8; 4]) -> Option<Vec<u8>> {
    let n = u32::from_le_bytes(b) as usize;
    Some(n).map(|k| Vec::with_capacity(k))
}

/// Approximation: `.min(x)` clears taint whatever untainted `x` bounds
/// it. `remaining` counts the frames still to send; it bounds nothing
/// about the buffer's size.
fn min_against_unrelated_bound(b: [u8; 4], frames: &[u64]) -> Vec<u8> {
    let remaining = frames.len();
    let n = (u32::from_le_bytes(b) as usize).min(remaining);
    Vec::with_capacity(n)
}
