#pragma once
// Surrogate topology description — the theta of the paper's 2D NAS (§5.1:
// kernel sizes, channels, pooling/unpooling sizes, residual connections per
// layer, plus depth/width for the MLP default). The NAS encodes a spec as a
// point in a normalized Euclidean box for the Gaussian process.

#include <array>
#include <string>

#include "common/rng.hpp"
#include "nn/network.hpp"

namespace ahn::nn {

enum class ModelKind { Mlp, Cnn };

[[nodiscard]] const char* model_kind_name(ModelKind k) noexcept;

/// One point of the architecture search space.
struct TopologySpec {
  ModelKind kind = ModelKind::Mlp;
  std::size_t num_layers = 2;    ///< hidden layers (MLP) / conv blocks (CNN)
  std::size_t hidden_units = 64; ///< neurons per hidden layer (MLP head width too)
  std::size_t channels = 8;      ///< conv channels per block
  std::size_t kernel = 3;        ///< conv kernel (odd)
  std::size_t pool = 1;          ///< pooling window per block (1 = none)
  bool residual = false;         ///< residual connections around hidden blocks
  Activation act = Activation::Relu;

  [[nodiscard]] std::string describe() const;

  friend bool operator==(const TopologySpec&, const TopologySpec&) = default;
};

/// Bounds of the search box. All specs drawn or decoded stay inside.
struct TopologySpace {
  std::size_t min_layers = 1, max_layers = 5;
  std::size_t min_units = 8, max_units = 256;
  std::size_t min_channels = 2, max_channels = 16;
  std::array<std::size_t, 3> kernel_choices{1, 3, 5};
  std::array<std::size_t, 2> pool_choices{1, 2};
  bool allow_cnn = true;

  /// Dimension of the vectorized encoding.
  [[nodiscard]] static constexpr std::size_t encoded_dim() noexcept { return 8; }

  [[nodiscard]] TopologySpec random(Rng& rng) const;

  /// Normalized [0,1]^d encoding for the GP (log-scaled widths so the GP
  /// length scale is meaningful across the decades of the range).
  [[nodiscard]] std::vector<double> encode(const TopologySpec& s) const;

  /// Decodes (and clamps) a point back into a valid spec.
  [[nodiscard]] TopologySpec decode(std::span<const double> x) const;

  /// Neighbourhood mutation used by acquisition optimization.
  [[nodiscard]] TopologySpec mutate(const TopologySpec& s, Rng& rng) const;
};

/// Materializes a trainable surrogate for the spec: `in` input features,
/// `out` output features. CNN specs view the input as 1 x in sequence.
[[nodiscard]] Network build_surrogate(const TopologySpec& spec, std::size_t in,
                                      std::size_t out, Rng& rng);

}  // namespace ahn::nn
