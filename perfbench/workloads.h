// The benchmark's workloads: how each input is generated from the seed,
// the file format and storage backend it is read through, and the FLOC
// configuration it is mined with. README.md says why each was chosen.
#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "src/core/cluster.h"
#include "src/core/data_matrix.h"
#include "src/core/floc.h"
#include "src/data/matrix_io.h"
#include "src/data/movielens_synth.h"
#include "src/data/synthetic.h"

namespace perfbench {

enum class InputFormat {
  kCsv,      ///< dense CSV, read with ReadMatrixFile
  kTriples,  ///< "row,col,value" lines, read with ReadTriples
};

struct GeneratedInput {
  deltaclus::DataMatrix matrix{0, 0};
  std::vector<deltaclus::Cluster> planted;
};

struct Workload {
  std::string name;
  InputFormat format = InputFormat::kCsv;
  deltaclus::MatrixBackend backend = deltaclus::MatrixBackend::kMem;
  /// Generator settings (the seed is set per run): `synthetic` for CSV
  /// workloads, `ratings` for the triples workload.
  deltaclus::SyntheticConfig synthetic;
  deltaclus::MovieLensSynthConfig ratings;
  /// Engine threads of every timed mine.
  int threads = 1;
  /// Stop each mine at half the iterations an uninterrupted run takes,
  /// checkpoint it to .dcs, resume in a fresh Floc and finish.
  bool checkpoint_resume = false;
  /// Mines per round, each with its own FLOC seed (1, 2, ...). A round
  /// averages over them, which keeps the per-seed differences in
  /// iteration count out of the run-to-run spread.
  size_t mines_per_round = 1;
  /// Result-affecting configuration (rng_seed and pool are set per mine).
  deltaclus::FlocConfig config;

  std::string InputFile() const {
    return format == InputFormat::kCsv ? "input.csv" : "ratings.csv";
  }
};

/// The named workload, or nullptr.
const Workload* FindWorkload(const std::string& name);

/// Generates the workload's input matrix and planted clusters from `seed`
/// with the library's generators.
GeneratedInput Generate(const Workload& w, uint64_t seed);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
