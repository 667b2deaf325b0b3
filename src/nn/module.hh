/**
 * @file
 * Parameter containers: Linear layers, a small MLP, and the Module base
 * that exposes named parameters for optimizers and serialization.
 */

#ifndef LISA_NN_MODULE_HH
#define LISA_NN_MODULE_HH

#include <string>
#include <utility>
#include <vector>

#include "nn/ops.hh"
#include "nn/tensor.hh"
#include "support/random.hh"

namespace lisa::nn {

/** Base class for anything holding trainable tensors. */
class Module
{
  public:
    virtual ~Module() = default;

    /** Named trainable parameters, in a stable order. */
    const std::vector<std::pair<std::string, Tensor>> &parameters() const
    {
        return params;
    }

    /** Zero every parameter gradient. */
    void zeroGrad();

  protected:
    /** Register a parameter; returns the same tensor for convenience. */
    Tensor registerParam(const std::string &name, Tensor t);

    /** Re-register all parameters of a child module under a prefix. */
    void registerChild(const std::string &prefix, const Module &child);

  private:
    std::vector<std::pair<std::string, Tensor>> params;
};

/** Xavier-uniform initialization for a (rows x cols) weight. */
Tensor xavier(int rows, int cols, Rng &rng);

/** Affine layer y = x W + b with W: (in x out), b: (1 x out). */
class Linear : public Module
{
  public:
    Linear(int in, int out, Rng &rng, const std::string &name = "linear");

    Tensor forward(const Tensor &x) const;

  private:
    Tensor weight;
    Tensor bias;
};

/**
 * Two-layer perceptron with ReLU activation (Eq. 3 / Eq. 7: "two
 * convolution layers and one activation layer", hidden width equal to the
 * input attribute count unless overridden).
 */
class Mlp : public Module
{
  public:
    Mlp(int in, int hidden, int out, Rng &rng,
        const std::string &name = "mlp");

    Tensor forward(const Tensor &x) const;

  private:
    Linear first;
    Linear second;
};

} // namespace lisa::nn

#endif // LISA_NN_MODULE_HH
