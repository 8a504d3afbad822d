# Sanitizer suite lists, sourced by scripts/tier1.sh and the CI
# workflow (.github/workflows/ci.yml) so both run the same targets.
# Each list names test binaries under build-<preset>/tests/.

# TSan: the engine's locking discipline — lock-free reduce fetch over
# published segment handles, atomic attempt commits of spilled map
# output. engine_test and randomized_test cover BOTH shuffle paths: the
# fault-plan / recovery suites (Engine.SpillRecoveryRaceHammer,
# Engine.FaultPlan*, RandomizedFaultPlan.*) run with spillDirectory set,
# so the spilled path's recovery races are sanitized too, not just the
# in-memory path. Why each suite is here:
#   engine_test / randomized_test    both shuffle paths + recovery races
#   linear_fastpath_test             packed segments' lazy materialization
#                                    on concurrently running reduces
#   sort_spill_parity_test           spill-writer pool re-encoding failed
#                                    attempts while lock-free fetches read
#                                    committed segments
#   trace_invariants_test            per-thread span-chunk publication
#   trace_differential_test          engine-vs-sim traces, recorder on
#   out_of_core_test                 pressure eviction vs recovery vs
#                                    streaming fetch (DESIGN.md section 14)
#   engine_service_test              N jobs sharing workers, one pool, one
#                                    spill dir; cancel/finalize races
#   segment_cache_test               warm claims racing donation, eviction
#                                    under pressure, cancel-mid-donation
#                                    (DESIGN.md section 16)
#   shuffle_transport_test           socket server threads serializing
#                                    segments concurrently with recovery
#                                    republication and mid-fetch cancels
#                                    (DESIGN.md section 17)
#   skew_join_test                   two-input maps feeding one shuffle,
#                                    refined-deal routing under every
#                                    regime/transport, join reduces over
#                                    dual-side segments (DESIGN.md §18)
TSAN_SUITES=(
  engine_test
  randomized_test
  linear_fastpath_test
  sort_spill_parity_test
  trace_invariants_test
  trace_differential_test
  out_of_core_test
  engine_service_test
  segment_cache_test
  shuffle_transport_test
  skew_join_test
)

# ASan: the memory-motion-heavy suites. The windowed SegmentStream
# decoder moves buffer boundaries around under pressure — exactly where
# an off-by-one would hide from TSan — the service's job teardown
# (namespace removal, handle-outlives-service results) is where a
# use-after-free would, and the segment cache hands shared_ptr segment
# handles across job lifetimes (donation after finalize, claims from
# later jobs). The transport suite's framed-decode fuzzing and chunked
# file serving are classic heap-overflow territory. skew_join_test
# joins two value streams inside one reduce (side-tagged list payloads,
# sorted in place) across every spill regime — buffer reuse across
# sides is where a stale-pointer bug would live. Reducers read packed
# list values in place (raw pointers into segment storage) and every
# regime frees a keyblock's segments on the worker that commits its
# reduce (DESIGN.md section 21), so the suites that merge and commit
# under every regime, transport and fault plan run here too:
#   engine_test / randomized_test    release at commit under recovery
#                                    re-runs and both shuffle paths
#   segment_test                     the merger handing out in-place
#                                    list pointers
#   linear_fastpath_test             packed segments merged by reduces
#   scifile_test                     run-coalesced region I/O and the
#                                    streaming record reader
ASAN_SUITES=(
  out_of_core_test
  engine_service_test
  segment_cache_test
  shuffle_transport_test
  skew_join_test
  engine_test
  randomized_test
  segment_test
  linear_fastpath_test
  scifile_test
)

# UBSan (fatal: the preset adds -fno-sanitize-recover=undefined, so the
# first report aborts the binary instead of only logging). The suites
# are the ones that move raw bytes and thread-local state:
#   segment_test / linear_fastpath_test / sort_spill_parity_test
#                                    the bulk spill codec, packed radix
#                                    sorts, decode-time linearization of
#                                    untrusted keys
#   trace_invariants_test            the thread_local recorder pointer
#   scifile_test                     the SNDF header/metadata decoder
#                                    fuzz (absurd dimension lengths
#                                    must not overflow a size)
#   shuffle_transport_test           framed-decode fuzzing
#   operators_test                   the median kernel's bit casts,
#                                    shifts and histogram indexing over
#                                    NaNs, infinities and subnormals
#   dense_mapper_test                dense cell-array offsets under row
#                                    runs cut from the region cursor
#   query_parser_test                number and coordinate scanning of
#                                    fuzzed query text
UBSAN_SUITES=(
  segment_test
  linear_fastpath_test
  sort_spill_parity_test
  trace_invariants_test
  scifile_test
  shuffle_transport_test
  operators_test
  dense_mapper_test
  query_parser_test
)
