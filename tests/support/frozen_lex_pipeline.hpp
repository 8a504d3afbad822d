// Frozen lexicographic map pipeline: the test oracle for the
// linearized-key path (DESIGN.md section 11).
//
// This is the map task as it ran for jobs that declared no keySpace:
// records read one at a time and fed to Mapper::map, every emit routed
// through the virtual Partitioner::partition() into per-keyblock
// KeyValue buffers, each buffer stable-sorted under lexicographic Coord
// compares, and the combiner folding runs of Coord-equal keys. The
// production pipeline linearizes keys, routes by cached partition runs
// and radix-sorts packed records; its segments must come out
// bit-identical to these. Do not optimize this code: its value is that
// it stays what it was.
#pragma once

#include <cstdint>
#include <vector>

#include "mapreduce/interfaces.hpp"
#include "mapreduce/job.hpp"
#include "mapreduce/segment.hpp"

namespace sidr::testsupport {

/// One map task through the frozen pipeline: one sorted (and, with a
/// combiner, combined) segment per keyblock, keyed in `keySpace` only
/// for the final Segment construction (the wire encoding the parity
/// suites compare).
std::vector<mr::Segment> frozenLexMapPipeline(
    const mr::InputSplit& split, std::uint32_t mapTask,
    const mr::RecordReaderFactory& readerFactory, mr::Mapper& mapper,
    const mr::Partitioner& partitioner, std::uint32_t numReducers,
    const mr::Combiner* combiner, const nd::Coord& keySpace);

/// A whole single-input job, serially: every split through
/// frozenLexMapPipeline, then each keyblock's reduce over its fetch set
/// (reduceDeps in SIDR mode, every map otherwise, in that order) with
/// the production merger, and the outputs flattened in key order —
/// what JobResult::collectAll returns for the same spec.
std::vector<mr::KeyValue> frozenLexCollectAll(const mr::JobSpec& spec);

}  // namespace sidr::testsupport
