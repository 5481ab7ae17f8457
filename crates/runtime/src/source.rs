//! The Cb runtime library, provided as source, checked once per process
//! and compiled into every program (the paper instruments `malloc()` and
//! related runtime-library functions — §3.2 "Protecting heap-allocated
//! objects").

/// Cb source of the runtime library.
///
/// * `malloc`/`free` — a first-fit free-list allocator over the simulated
///   heap. `malloc` communicates object extents to the protection scheme
///   through `__setbound` (which each compiler mode lowers appropriately);
///   its internal bookkeeping uses the `__unbound` escape hatch, exactly
///   the paper's "custom memory allocators … can write such code that is
///   still safe by calling the setbound instruction directly" (§3.2).
/// * string helpers (`strlen`, `strcpy`, `strcmp`, `memcpy`, `memset`,
///   `print_str`).
/// * 16.16 fixed-point arithmetic (`fx_*`) — substitute for the floating
///   point the integer-only ISA lacks (see DESIGN.md substitutions).
/// * `rand_seed`/`rand_next` — deterministic xorshift PRNG for workloads.
pub const RUNTIME_SOURCE: &str = r#"
// ---- allocator ---------------------------------------------------------
// Heap region: [0x1000000, 0x5000000) — see hardbound_isa::layout.

struct __hdr { int size; struct __hdr *next; };

int __heap_ready;
char *__heap_bump;
struct __hdr *__free_list;

void *malloc(int n) {
    if (n < 1) n = 1;
    int req = n;
    n = (n + 7) & (~7);
    if (!__heap_ready) {
        __heap_ready = 1;
        __heap_bump = __unbound((char*)0x1000000);
        __free_list = 0;
    }
    // First fit over the free list.
    struct __hdr *prev = 0;
    struct __hdr *cur = __free_list;
    while (cur != 0) {
        if (cur->size >= n) {
            if (prev == 0) { __free_list = cur->next; }
            else { prev->next = cur->next; }
            char *payload = (char*)cur + 8;
            return __setbound(payload, cur->size);
        }
        prev = cur;
        cur = cur->next;
    }
    // Bump allocation.
    char *block = __heap_bump;
    __heap_bump = __heap_bump + (n + 8);
    if ((int)__heap_bump >= 0x5000000) {
        print_int(-999);   // out of simulated heap
        halt(101);
    }
    struct __hdr *h = (struct __hdr*)block;
    h->size = n;
    h->next = 0;
    // Bound the pointer to the *requested* extent: tighter protection
    // than the rounded block size (per-allocation granularity, §3.2).
    return __setbound(block + 8, req);
}

void free(void *p) {
    if (p == 0) return;
    __freebound(p);
    struct __hdr *h = (struct __hdr*)__unbound((char*)p - 8);
    h->next = __free_list;
    __free_list = h;
}

// ---- strings -----------------------------------------------------------

int strlen(char *s) {
    int n = 0;
    while (s[n] != 0) n = n + 1;
    return n;
}

void strcpy(char *dst, char *src) {
    int i = 0;
    while (src[i] != 0) { dst[i] = src[i]; i = i + 1; }
    dst[i] = 0;
}

int strcmp(char *a, char *b) {
    int i = 0;
    while (a[i] != 0 && a[i] == b[i]) i = i + 1;
    return a[i] - b[i];
}

void memcpy(char *dst, char *src, int n) {
    for (int i = 0; i < n; i = i + 1) dst[i] = src[i];
}

void memset(char *dst, int value, int n) {
    for (int i = 0; i < n; i = i + 1) dst[i] = (char)value;
}

void print_str(char *s) {
    int i = 0;
    while (s[i] != 0) { print_char(s[i]); i = i + 1; }
}

// ---- 16.16 fixed point ---------------------------------------------------

int fx_from_int(int a) { return a << 16; }

int fx_to_int(int a) { return a >> 16; }

int fx_mul(int a, int b) {
    int hi = __mulh(a, b);
    int lo = a * b;
    return (hi << 16) | ((lo >> 16) & 0xFFFF);
}

int fx_div(int a, int b) {
    if (b == 0) return 0x7FFFFFFF;
    int neg = 0;
    if (a < 0) { a = 0 - a; neg = 1 - neg; }
    if (b < 0) { b = 0 - b; neg = 1 - neg; }
    // 48-bit-safe (a << 16) / b via integer quotient plus bitwise
    // refinement of the fractional part (the naive (r << 16) / b
    // overflows 32 bits whenever b > 2^15).
    int q = a / b;
    int r = a - q * b;
    int frac = 0;
    for (int i = 0; i < 16; i = i + 1) {
        r = r << 1;
        frac = frac << 1;
        if (r >= b) { r = r - b; frac = frac + 1; }
    }
    int result = (q << 16) + frac;
    if (neg) return 0 - result;
    return result;
}

int fx_abs(int a) { return a < 0 ? 0 - a : a; }

int fx_sqrt(int x) {
    if (x <= 0) return 0;
    int r = x;
    if (r < 65536) r = 65536;
    for (int i = 0; i < 24; i = i + 1) {
        r = (r + fx_div(x, r)) >> 1;
    }
    return r;
}

// ---- miscellaneous -------------------------------------------------------

int abs(int x) { return x < 0 ? 0 - x : x; }

int __rand_state = 88172645;

void rand_seed(int s) {
    if (s == 0) s = 88172645;
    __rand_state = s;
}

int rand_next() {
    int x = __rand_state;
    x = x ^ (x << 13);
    x = x ^ ((x >> 17) & 0x7FFF);
    x = x ^ (x << 5);
    __rand_state = x;
    return x & 0x7FFFFFFF;
}

int rand_range(int n) {
    if (n <= 0) return 0;
    return rand_next() % n;
}
"#;
