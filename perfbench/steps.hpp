#pragma once
/// \file steps.hpp
/// \brief The per-timestep input shared by the stream and serve workloads:
/// a synthetic solver field dumped as one PTB1 file per step, and the
/// accuracy check of an archived window against those dumps.

#include <string>

#include "dist/dist_tensor.hpp"
#include "pario/archive_io.hpp"
#include "pario/timestep_reader.hpp"

namespace perfbench {

/// Spatial x spatial x species extents of one step.
struct StepShape {
  std::size_t dim = 64;
  std::size_t species = 16;
  [[nodiscard]] ptucker::tensor::Dims dims() const {
    return {dim, dim, species};
  }
};

inline constexpr int kSpeciesMode = 2;

/// Collective: write steps [first, first + count) as step_%05zu.ptb files
/// in \p dir, each rank writing its own block of \p grid (the step order).
/// The field depends on \p seed only through a per-species sign, so every
/// seed compresses to the same ranks.
void dump_steps(const std::shared_ptr<ptucker::mps::CartGrid>& grid,
                const std::string& dir, const StepShape& shape,
                std::size_t first, std::size_t count, std::uint64_t seed);

/// The step field of one window as a plain (step dims x time) tensor.
[[nodiscard]] ptucker::tensor::Tensor make_window(const StepShape& shape,
                                                  std::size_t first,
                                                  std::size_t count,
                                                  std::uint64_t seed);

/// Achieved ‖X − X̃‖ / ‖X‖ of archive entry \p e against the original
/// window \p x, both in the entry's normalized coordinates.
[[nodiscard]] double entry_error(const ptucker::pario::ArchiveReader& archive,
                                 std::size_t e,
                                 const ptucker::tensor::Tensor& x);

}  // namespace perfbench
