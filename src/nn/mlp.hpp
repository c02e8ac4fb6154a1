// Small dense neural networks (MLPs) with manual backprop.
//
// Replaces the paper's PyTorch dependency for its three "light-weight"
// neural models: the prior-distribution generator H (multi-head softmax),
// the neural acquisition function (scalar scorer) and the parametric
// surrogate cost model. Sized for thousands of parameters, not millions.
#pragma once

#include <span>
#include <vector>

#include "common/rng.hpp"
#include "common/serialize.hpp"
#include "linalg/matrix.hpp"

namespace glimpse::nn {

enum class Activation { kRelu, kTanh };

/// Weights and biases of an MLP; also the shape of its gradients.
struct MlpParams {
  std::vector<linalg::Matrix> w;  ///< w[l]: (out x in) for layer l
  std::vector<linalg::Vector> b;

  /// this += scale * other (for gradient accumulation / SGD steps).
  void axpy(double scale, const MlpParams& other);
  void scale(double s);
  void fill(double v);
  std::size_t num_params() const;
};

/// Feed-forward network: hidden layers use `activation`, output is linear.
class Mlp {
 public:
  /// sizes = {input, hidden..., output}; weights get He/Xavier init from rng.
  Mlp(std::vector<std::size_t> sizes, Activation activation, Rng& rng);

  linalg::Vector forward(std::span<const double> x) const;

  /// Per-layer activations captured during a forward pass, for backprop.
  /// A Cache reused across calls keeps its buffers: a training loop with
  /// one Cache per network allocates nothing per sample.
  struct Cache {
    std::vector<linalg::Vector> pre;   ///< pre-activation per layer
    std::vector<linalg::Vector> post;  ///< post-activation per layer
    linalg::Vector delta, dprev;       ///< accumulate_grad's scratch
  };
  /// Returns the network output, which lives in `cache` (post.back()) until
  /// the cache's next forward pass.
  const linalg::Vector& forward(std::span<const double> x, Cache& cache) const;

  /// Post-activation matrices of a batched pass (rows align with the input
  /// batch; back() is the network output).
  struct BatchCache {
    std::vector<linalg::Matrix> post;
  };

  /// Batched forward over the rows of x: returns an (x.rows() x output_dim)
  /// matrix whose row i equals forward(x.row(i)) bit-exactly — the batched
  /// layer product (matmul_nt) shares its dot kernel with the per-sample
  /// matvec. One call amortizes one parallel matrix product per layer
  /// instead of one dot product per sample, which is what makes surrogate
  /// scoring fan out usefully across the thread pool.
  linalg::Matrix forward_batch(const linalg::Matrix& x,
                               BatchCache* cache = nullptr) const;

  /// Backprop dL/doutput through the cached pass: grad += scale * dθ, in
  /// place. dL/dinput goes into *dx when given (assigned if *dx is empty,
  /// else added). Rows whose delta is zero are skipped. Each weight update
  /// is `grad += scale * (delta * input)`, the same float operations in the
  /// same order as grad.axpy(scale, backward(...)), so the two agree
  /// bitwise for any grad that holds no -0.0 (one accumulated from
  /// zero_like() never does). The cache's forward values stay intact.
  void accumulate_grad(std::span<const double> x, Cache& cache,
                       std::span<const double> dout, double scale, MlpParams& grad,
                       linalg::Vector* dx = nullptr) const;

  /// Parameter grads of one sample as a fresh buffer: zero_like() plus
  /// accumulate_grad at scale 1.
  MlpParams backward(std::span<const double> x, const Cache& cache,
                     std::span<const double> dout, linalg::Vector* dx = nullptr) const;

  /// Zero-initialized gradient buffer with this network's shape.
  MlpParams zero_like() const;

  /// Persist / restore the full network (architecture + weights).
  void save(TextWriter& w) const;
  static Mlp load(TextReader& r);

  MlpParams& params() { return p_; }
  const MlpParams& params() const { return p_; }
  std::size_t input_dim() const { return sizes_.front(); }
  std::size_t output_dim() const { return sizes_.back(); }
  const std::vector<std::size_t>& sizes() const { return sizes_; }

 private:
  Mlp() = default;  // for load()

  std::vector<std::size_t> sizes_;
  Activation activation_ = Activation::kRelu;
  MlpParams p_;
};

}  // namespace glimpse::nn
