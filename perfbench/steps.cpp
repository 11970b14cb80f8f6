#include "steps.hpp"

#include <cmath>
#include <cstdio>
#include <numbers>

#include "core/reconstruct.hpp"
#include "data/normalize.hpp"
#include "pario/block_file.hpp"
#include "util/rng.hpp"

namespace perfbench {

using namespace ptucker;

namespace {

/// A drifting Gaussian burst per species over a slow travelling wave — the
/// combustion-like shape of a solver's per-step dump, cheap to evaluate.
double field(const StepShape& shape, std::size_t i, std::size_t j,
             std::size_t s, std::size_t step, std::uint64_t seed) {
  const double pi2 = 2.0 * std::numbers::pi;
  const double x = static_cast<double>(i) / static_cast<double>(shape.dim);
  const double y = static_cast<double>(j) / static_cast<double>(shape.dim);
  const double t = 0.05 * static_cast<double>(step);
  const double sp =
      static_cast<double>(s + 1) / static_cast<double>(shape.species);
  const double cx = 0.5 + 0.3 * std::sin(pi2 * (t + sp));
  const double cy = 0.5 + 0.3 * std::cos(pi2 * t * sp);
  const double r2 = (x - cx) * (x - cx) + (y - cy) * (y - cy);
  const double v = sp * std::exp(-40.0 * r2) + 0.1 * std::sin(pi2 * (x + y) + t);
  return (util::splitmix64(seed * 1000003 + s) & 1) ? -v : v;
}

}  // namespace

void dump_steps(const std::shared_ptr<mps::CartGrid>& grid,
                const std::string& dir, const StepShape& shape,
                std::size_t first, std::size_t count, std::uint64_t seed) {
  for (std::size_t t = first; t < first + count; ++t) {
    dist::DistTensor x(grid, shape.dims());
    x.fill_global([&](std::span<const std::size_t> idx) {
      return field(shape, idx[0], idx[1], idx[2], t, seed);
    });
    char name[32];
    std::snprintf(name, sizeof(name), "/step_%05zu.ptb", t);
    pario::write_dist_tensor(dir + name, x);
  }
}

tensor::Tensor make_window(const StepShape& shape, std::size_t first,
                           std::size_t count, std::uint64_t seed) {
  tensor::Tensor x({shape.dim, shape.dim, shape.species, count});
  double* v = x.data();
  for (std::size_t t = 0; t < count; ++t) {
    for (std::size_t s = 0; s < shape.species; ++s) {
      for (std::size_t j = 0; j < shape.dim; ++j) {
        for (std::size_t i = 0; i < shape.dim; ++i) {
          *v++ = field(shape, i, j, s, first + t, seed);
        }
      }
    }
  }
  return x;
}

double entry_error(const pario::ArchiveReader& archive, std::size_t e,
                   const tensor::Tensor& x) {
  const pario::LocalModelData model = archive.read_entry_local(e);
  tensor::Tensor xn = x;
  (void)data::normalize_species_seq(xn, kSpeciesMode);
  std::vector<util::Range> full;
  for (std::size_t d : xn.dims()) full.push_back({0, d});
  const tensor::Tensor xt =
      core::reconstruct_range_local(model.core, model.factors, full);
  double diff = 0.0, norm = 0.0;
  for (std::size_t k = 0; k < xn.size(); ++k) {
    const double d = xn.data()[k] - xt.data()[k];
    diff += d * d;
    norm += xn.data()[k] * xn.data()[k];
  }
  return norm > 0.0 ? std::sqrt(diff / norm) : 0.0;
}

}  // namespace perfbench
