// Package flightrec is CATCAM's flight recorder: the observability
// layer that continuously *proves* the paper's structural claims in
// flight, rather than merely counting them the way internal/telemetry
// does. It provides two cooperating instruments, both sampling-rate
// gated so the zero-allocation classify fast path stays untouched when
// sampling is off:
//
//   - Auditor: online invariant auditing. Cheap inline checks on
//     sampled lookups (one-hot report vector, winner agreement with the
//     metadata cache, eviction-chain length ≤ 1) plus background sweeps
//     (priority-matrix antisymmetry/irreflexivity, global interval
//     disjointness, bit-plane ≡ scalar match-array consistency) feed
//     per-invariant check/violation counters and a ring of recent
//     violations, served as the /debug/audit report.
//
//   - Shadow: differential checking. A sampled fraction of lookups is
//     re-classified through a software reference classifier
//     (internal/swclass) mirroring the installed ruleset; divergence is
//     flagged as a shadow_match violation.
//
// The causal record of each sampled update — the datapath steps it
// walked, each with its modelled cycles — is an internal/trace update
// trace, on the same tracer and timeline as the lookups.
//
// This mirrors the self-checking update pipelines RAM/FPGA-CAM designs
// rely on (Nguyen et al., "An Efficient I/O Architecture for RAM-based
// CAM on FPGA"): the datapath carries its own online proof obligations.
package flightrec
