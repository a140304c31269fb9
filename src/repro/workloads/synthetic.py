"""Synthetic analysis-stress workloads (not part of the paper's 28).

These programs exercise corner cases of the static-analysis layer rather
than representing paper benchmarks.  ``smooth-alias`` binds two pointer
arguments of the same kernel to one buffer — the exact situation the
historical blanket-``restrict`` aliasing model mishandles (it claims the
arguments never alias, dropping a real loop-carried dependence).  The
points-to analysis proves the overlap; ``--sanitize --inject-unsound
alias`` demonstrates the restrict model's unsoundness at runtime.

``bitwidth-adversary`` stresses the bitwidth layer: an LCG whose state
parity alternates every iteration (so no sound analysis may claim its low
bit), mixed through shifts, xor, masking, negation and 64-bit widening.
Run under ``--sanitize`` it must be violation-free; run with
``--inject-unsound bitwidth`` (which deliberately mis-claims one
known-zero bit per instruction) the sanitizer must fail — demonstrating
an unsound transfer function cannot slip through.

``seidel-1d``, ``iir-interleaved`` and ``conv-dilated`` stress the
dependence layer: each has an in-place recurrence over a *symbolic
stride* (a row stride or channel count known only through a kernel
argument) with a small constant iteration distance.  The 1-D windowed
distance test cannot read a symbolic stride and reports "carried,
distance unknown" — forcing recurrence II equal to the full recurrence
latency — while the affine dependence-vector engine resolves the stride
through interprocedural intervals and proves the real distance, cutting
the pipeline II at identical area (the ``pipeline_ii`` bench section
measures exactly this before/after).

``wave-lag`` is the sibling soundness case: the recurrence *distance
itself* is the argument (``W[j] = f(W[j - lag])``).  The 1-D test sees an
invariant symbolic offset difference and — assuming lockstep sequences
stay disjoint — drops the dependence entirely, an unsound claim the
vector engine repairs by proving the finite distance ``lag``; its
``pipeline_ii`` delta is therefore an II *increase* (a soundness fix,
not a regression).

``stride2-collider``, ``bank-transpose`` and ``dual-interleave`` stress
the scratchpad bank-conflict layer (``repro banks``).  The collider's
``A[2*i]`` gather puts every unrolled lane pair an even number of words
apart, so *no* cyclic or block scheme up to the unroll factor is
conflict-free — the banking verdict must serialize the group (the old
model assumed perfect parallelism here; ``--inject-unsound banking``
re-claims the conflicted schemes and the sanitizer must catch the
observed collisions).  ``bank-transpose`` sweeps a row-major matrix by
column (stride = one full row), the classic case where cyclic banking
always collides but *block* banking provably never does — the verdict
must pick ``block-4``.  ``dual-interleave`` touches a stride-1 array
(proven cyclic) and a stride-2 array (provably conflicted) in one loop,
so one configuration carries mixed per-group verdicts.

``stencil-reuse-3``, ``fwd-store-load`` and ``reuse-breaker`` stress the
data-reuse layer (``repro reuse``).  The stencil reads three overlapping
window taps of a read-only array — pure *self-reuse* at distances 1 and
2, so two of the three loads must come from shift-register taps instead
of scratchpad ports.  ``fwd-store-load`` feeds its own store back two
iterations later — *store-to-load forwarding* at lag 2, the group-reuse
case.  ``reuse-breaker`` has the same lag-2 feedback but interposes a
store through a may-alias pointer argument between producer and
consumer: the forwarding claim must degrade to *unknown* (never
exploited), and the workload must still sanitize clean because no pair
is claimed.
"""

from .registry import Workload, register

register(Workload(
    name="smooth-alias",
    suite="synthetic",
    description=(
        "IIR-style smoothing kernel called once with disjoint buffers and "
        "once with src aliased to dst (restrict-model stress)"
    ),
    outputs=("buf", "out"),
    source="""
float buf[96];
float out[96];

void init(int n) {
  for (int i = 0; i < n; i++) {
    buf[i] = (float)((i * 7 + 3) % 17) / 16.0f;
    out[i] = 0.0f;
  }
}

void smooth(float *dst, float *src, int n) {
  for (int i = 1; i < n; i++) {
    dst[i] = src[i - 1] * 0.5f + dst[i] * 0.25f;
  }
}

int main() {
  init(96);
  smooth(out, buf, 96);
  smooth(buf, buf, 96);
  return 0;
}
""",
))

register(Workload(
    name="bitwidth-adversary",
    suite="synthetic",
    description=(
        "alternating-parity LCG with shifts, xor, masking and 64-bit "
        "mixing: every low bit is runtime-live, so any unsound known-bits "
        "or demanded-bits claim is caught by the sanitizer"
    ),
    outputs=("mix",),
    source="""
int mix[64];

int lcg_mix(int rounds) {
  int s = 1;
  int acc = 0;
  for (int i = 0; i < rounds; i++) {
    s = s * 5 + 3;
    int masked = s & 255;
    int doubled = i * 2;
    int shifted = (s >> 3) ^ (masked << 2);
    long wide = (long)s * 3;
    int narrow = (int)wide;
    int neg = 0 - masked;
    if ((s & 1) == 1) {
      acc = acc ^ (shifted + doubled);
    } else {
      acc = acc + (narrow ^ neg);
    }
  }
  return acc;
}

int main() {
  for (int i = 0; i < 64; i++) {
    mix[i] = lcg_mix(i + 1);
  }
  return 0;
}
""",
))

register(Workload(
    name="seidel-1d",
    suite="synthetic",
    description=(
        "red-black Gauss-Seidel-like column sweep over a linearized grid: "
        "each cell feeds back the cell two rows up, across a symbolic row "
        "stride n (distance 2, stride known only interprocedurally)"
    ),
    outputs=("G",),
    source="""
float G[600];

void init(int cells) {
  for (int i = 0; i < cells; i++) {
    G[i] = (float)((i * 11 + 5) % 23) / 22.0f;
  }
}

void sweep(int n, int rows) {
  for (int t = 0; t < 2; t++) {
    cols: for (int c = 0; c < n; c++) {
      col_sweep: for (int r = 2; r < rows; r++) {
        G[r * n + c] = G[r * n + c] * 0.5f + G[(r - 2) * n + c] * 0.5f;
      }
    }
  }
}

int main() {
  init(576);
  sweep(24, 24);
  return 0;
}
""",
))

register(Workload(
    name="wave-lag",
    suite="synthetic",
    description=(
        "time-stepped 1-D wave update feeding back the sample `lag` "
        "positions behind: recurrence distance = lag, an argument (the "
        "1-D windowed test unsoundly drops this dependence; the vector "
        "engine proves distance lag)"
    ),
    outputs=("W",),
    source="""
float W[512];

void init(int n) {
  for (int i = 0; i < n; i++) {
    W[i] = (float)((i * 13 + 7) % 31) / 30.0f;
  }
}

void step(int lag, int n) {
  for (int t = 0; t < 6; t++) {
    upd: for (int j = lag; j < n; j++) {
      W[j] = W[j] * 0.5f + W[j - lag] * 0.5f;
    }
  }
}

int main() {
  init(512);
  step(6, 512);
  return 0;
}
""",
))

register(Workload(
    name="conv-dilated",
    suite="synthetic",
    description=(
        "in-place accumulation over dilated sample positions B[j*d] = "
        "B[(j-3)*d]*a + X[j*d]: symbolic stride d, carried distance 3"
    ),
    outputs=("B",),
    source="""
float B[400];
float X[400];

void init(int n) {
  for (int i = 0; i < n; i++) {
    B[i] = 0.0f;
    X[i] = (float)((i * 5 + 2) % 19) / 18.0f;
  }
}

void conv(int d, int taps) {
  acc: for (int j = 3; j < taps; j++) {
    B[j * d] = B[(j - 3) * d] * 0.25f + X[j * d];
  }
}

int main() {
  init(400);
  conv(4, 100);
  return 0;
}
""",
))

register(Workload(
    name="iir-interleaved",
    suite="synthetic",
    description=(
        "order-2 in-place IIR feedback over channel-interleaved samples: "
        "symbolic element stride ch, carried distance 2 frames"
    ),
    outputs=("S",),
    source="""
float S[512];

void init(int n) {
  for (int i = 0; i < n; i++) {
    S[i] = (float)((i * 13 + 7) % 31) / 30.0f;
  }
}

void filt(int ch, int frames) {
  chans: for (int c = 0; c < ch; c++) {
    taps: for (int j = 2; j < frames; j++) {
      S[j * ch + c] = S[j * ch + c] * 0.6f + S[(j - 2) * ch + c] * 0.4f;
    }
  }
}

int main() {
  init(480);
  filt(4, 120);
  return 0;
}
""",
))

register(Workload(
    name="stride2-collider",
    suite="synthetic",
    description=(
        "stride-2 gather over a scratchpad group: every lane pair lands "
        "an even word distance apart, so no cyclic/block banking scheme "
        "is conflict-free and the group must serialize"
    ),
    outputs=("R",),
    source="""
float A[128];
float R[64];

void init(int n) {
  for (int i = 0; i < n; i++) {
    A[i] = (float)((i * 5 + 2) % 19) / 18.0f;
  }
  for (int j = 0; j < 64; j++) {
    R[j] = 0.0f;
  }
}

void collide(int reps, int n) {
  rep: for (int t = 0; t < reps; t++) {
    gather: for (int i = 0; i < n; i++) {
      R[i] = R[i] * 0.5f + A[2 * i] * 0.5f;
    }
  }
}

int main() {
  init(128);
  collide(16, 64);
  return 0;
}
""",
))

register(Workload(
    name="bank-transpose",
    suite="synthetic",
    description=(
        "column sweep over a row-major matrix (stride = one 24-element "
        "row): cyclic banking provably collides at every factor while "
        "block banking is provably conflict-free — the verdict must "
        "select block-4"
    ),
    outputs=("Csum",),
    source="""
float T[96];
float Csum[24];

void init(int n) {
  for (int i = 0; i < n; i++) {
    T[i] = (float)((i * 11 + 5) % 23) / 22.0f;
  }
  for (int j = 0; j < 24; j++) {
    Csum[j] = 0.0f;
  }
}

void colsum(int reps, int cols) {
  rep: for (int t = 0; t < reps; t++) {
    cols_l: for (int c = 0; c < cols; c++) {
      float s = 0.0f;
      rows_l: for (int r = 0; r < 4; r++) {
        s = s + T[r * 24 + c];
      }
      Csum[c] = Csum[c] * 0.5f + s * 0.125f;
    }
  }
}

int main() {
  init(96);
  colsum(8, 24);
  return 0;
}
""",
))

register(Workload(
    name="dual-interleave",
    suite="synthetic",
    description=(
        "one loop over two scratchpad groups: a stride-1 array proves "
        "cyclic banking while an interleaved stride-2 array is provably "
        "conflicted — mixed per-group verdicts in a single configuration"
    ),
    outputs=("S",),
    source="""
float S[96];
float D[192];

void init(int n) {
  for (int i = 0; i < n; i++) {
    D[i] = (float)((i * 3 + 1) % 29) / 28.0f;
  }
  for (int j = 0; j < 96; j++) {
    S[j] = (float)((j * 7 + 4) % 13) / 12.0f;
  }
}

void gath(int reps, int n) {
  rep: for (int t = 0; t < reps; t++) {
    mix: for (int i = 0; i < n; i++) {
      S[i] = S[i] * 0.5f + D[2 * i] * 0.25f + D[2 * i + 1] * 0.25f;
    }
  }
}

int main() {
  init(192);
  gath(8, 96);
  return 0;
}
""",
))

register(Workload(
    name="stencil-reuse-3",
    suite="synthetic",
    description=(
        "1-D 3-point stencil over a read-only array: the window taps "
        "X[i-1] and X[i-2] provably re-read what X[i] loaded 1 and 2 "
        "iterations earlier (pure self-reuse, shift-register depth 2)"
    ),
    outputs=("Ys",),
    source="""
float Xs[256];
float Ys[256];

void init(int n) {
  for (int i = 0; i < n; i++) {
    Xs[i] = (float)((i * 9 + 4) % 21) / 20.0f;
    Ys[i] = 0.0f;
  }
}

void stencil(int n) {
  st: for (int i = 2; i < n; i++) {
    Ys[i] = Xs[i] * 0.25f + Xs[i - 1] * 0.5f + Xs[i - 2] * 0.25f;
  }
}

int main() {
  init(256);
  stencil(256);
  return 0;
}
""",
))

register(Workload(
    name="fwd-store-load",
    suite="synthetic",
    description=(
        "in-place recurrence F[i] = f(F[i-2]): the load provably reads "
        "what the store wrote two iterations earlier (store-to-load "
        "forwarding at lag 2, the group-reuse case)"
    ),
    outputs=("F",),
    source="""
float F[256];
float K[256];

void init(int n) {
  for (int i = 0; i < n; i++) {
    F[i] = (float)((i * 7 + 3) % 17) / 16.0f;
    K[i] = (float)((i * 5 + 1) % 13) / 12.0f;
  }
}

void fwd(int n) {
  acc: for (int i = 2; i < n; i++) {
    F[i] = F[i - 2] * 0.75f + K[i] * 0.25f;
  }
}

int main() {
  init(256);
  fwd(256);
  return 0;
}
""",
))

register(Workload(
    name="reuse-breaker",
    suite="synthetic",
    description=(
        "lag-2 feedback like fwd-store-load, but a store through a "
        "may-alias pointer argument lands between producer and consumer: "
        "the forwarding claim must degrade to unknown and stay "
        "unexploited"
    ),
    outputs=("Bk",),
    source="""
float Bk[256];

void init(int n) {
  for (int i = 0; i < n; i++) {
    Bk[i] = (float)((i * 11 + 2) % 19) / 18.0f;
  }
}

void brk(float *alias, int n) {
  acc: for (int i = 2; i < n; i++) {
    Bk[i] = Bk[i - 2] * 0.5f + 0.25f;
    alias[i - 1] = Bk[i] * 0.125f;
  }
}

int main() {
  init(256);
  brk(Bk, 256);
  return 0;
}
""",
))
