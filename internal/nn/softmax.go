package nn

import (
	"fmt"
	"math"
	"math/rand"
)

// NegInf is the logit value used to disable masked actions: exp(-inf) = 0,
// so masked actions receive zero probability (the Apply_Mask of
// Algorithm 2, line 6).
var NegInf = math.Inf(-1)

// ensureLen grows dst to length n, reusing capacity when possible.
func ensureLen(dst []float64, n int) []float64 {
	if cap(dst) < n {
		return make([]float64, n)
	}
	return dst[:n]
}

// MaskLogits returns a copy of logits with masked-out entries (mask[i] ==
// false) set to -inf. The caller keeps the original logits for the PPO
// buffer (Algorithm 2, line 17 stores the unmasked policy).
func MaskLogits(logits []float64, mask []bool) []float64 {
	return MaskLogitsInto(nil, logits, mask)
}

// MaskLogitsInto is MaskLogits writing into dst (grown as needed and
// returned); dst may alias logits. Pass a scratch slice to avoid the
// per-call allocation on hot paths.
func MaskLogitsInto(dst, logits []float64, mask []bool) []float64 {
	if len(logits) != len(mask) {
		panic(fmt.Sprintf("nn: %d logits vs %d mask bits", len(logits), len(mask)))
	}
	dst = ensureLen(dst, len(logits))
	for i, l := range logits {
		if mask[i] {
			dst[i] = l
		} else {
			dst[i] = NegInf
		}
	}
	return dst
}

// LogSoftmax computes numerically stable log-probabilities. Entries at -inf
// stay -inf. It panics if every entry is -inf.
func LogSoftmax(logits []float64) []float64 {
	return LogSoftmaxInto(nil, logits)
}

// LogSoftmaxInto is LogSoftmax writing into dst (grown as needed and
// returned); dst may alias logits.
func LogSoftmaxInto(dst, logits []float64) []float64 {
	maxL := NegInf
	for _, l := range logits {
		if l > maxL {
			maxL = l
		}
	}
	if math.IsInf(maxL, -1) {
		panic("nn: log-softmax over fully masked logits")
	}
	var sum float64
	for _, l := range logits {
		if !math.IsInf(l, -1) {
			sum += math.Exp(l - maxL)
		}
	}
	logZ := maxL + math.Log(sum)
	dst = ensureLen(dst, len(logits))
	for i, l := range logits {
		if math.IsInf(l, -1) {
			dst[i] = NegInf
		} else {
			dst[i] = l - logZ
		}
	}
	return dst
}

// Softmax computes probabilities from logits (masked entries get 0).
func Softmax(logits []float64) []float64 {
	return SoftmaxInto(nil, logits)
}

// SoftmaxInto is Softmax writing into dst (grown as needed and returned);
// dst may alias logits.
func SoftmaxInto(dst, logits []float64) []float64 {
	dst = LogSoftmaxInto(dst, logits)
	for i, l := range dst {
		if math.IsInf(l, -1) {
			dst[i] = 0
		} else {
			dst[i] = math.Exp(l)
		}
	}
	return dst
}

// SampleCategorical draws an index from the categorical distribution given
// by probs using rng. Probabilities must sum to ~1; the last positive entry
// absorbs rounding error.
func SampleCategorical(rng *rand.Rand, probs []float64) int {
	r := rng.Float64()
	var cum float64
	last := -1
	for i, p := range probs {
		if p <= 0 {
			continue
		}
		last = i
		cum += p
		if r < cum {
			return i
		}
	}
	if last == -1 {
		panic("nn: sampling from all-zero distribution")
	}
	return last
}

// Argmax returns the index of the largest value (first on ties).
func Argmax(xs []float64) int {
	best, bestV := -1, NegInf
	for i, v := range xs {
		if v > bestV {
			best, bestV = i, v
		}
	}
	return best
}

// Entropy computes the Shannon entropy of a probability vector in nats.
func Entropy(probs []float64) float64 {
	var h float64
	for _, p := range probs {
		if p > 0 {
			h -= p * math.Log(p)
		}
	}
	return h
}

// LogSoftmaxGrad returns the gradient of logProbs[action] with respect to
// the (masked) logits: e_a − softmax(logits). Masked entries get zero
// gradient, so fully disabled actions never receive updates.
//
// action must index a non-masked (finite) logit: log p(action) is -inf
// there, and the e_a term would otherwise leave a +1 gradient on the
// masked entry, pushing probability mass onto a disabled action. That
// only happens when a caller stores an action inconsistent with its mask,
// so it panics loudly instead of corrupting the policy.
func LogSoftmaxGrad(logits []float64, action int) []float64 {
	return LogSoftmaxGradInto(nil, logits, action)
}

// LogSoftmaxGradInto is LogSoftmaxGrad writing into dst (grown as needed
// and returned). dst must not alias logits: the probabilities are computed
// into dst first and the masked entries are then re-read from logits.
func LogSoftmaxGradInto(dst, logits []float64, action int) []float64 {
	if math.IsInf(logits[action], -1) {
		panic(fmt.Sprintf("nn: log-softmax gradient of masked action %d (logit is -inf)", action))
	}
	dst = SoftmaxInto(dst, logits)
	for i, p := range dst {
		if math.IsInf(logits[i], -1) {
			dst[i] = 0
			continue
		}
		dst[i] = -p
	}
	dst[action]++
	return dst
}

// Scratch is a per-worker arena of reusable action-space vectors, sized
// once from the policy's output dimension. Every exploration step and PPO
// update step needs the same intermediates (raw logits, masked logits,
// probabilities, log-probabilities); carving them out of one arena keeps
// the sampling path allocation-free. The buffers are mutually disjoint,
// but each one is overwritten by the next step — callers that retain
// values must copy them out.
type Scratch struct {
	// Logits receives the raw policy output in batched evaluation.
	Logits []float64
	// Masked holds the masked logits of the current step.
	Masked []float64
	// Probs holds softmax probabilities.
	Probs []float64
	// LogProbs holds log-softmax values.
	LogProbs []float64
}

// NewScratch builds an arena for an action space of the given size. One
// backing array serves all four vectors.
func NewScratch(actionSpace int) *Scratch {
	if actionSpace <= 0 {
		panic(fmt.Sprintf("nn: scratch action space must be positive, got %d", actionSpace))
	}
	slab := make([]float64, 4*actionSpace)
	s := &Scratch{}
	s.Logits = slab[0*actionSpace : 1*actionSpace : 1*actionSpace]
	s.Masked = slab[1*actionSpace : 2*actionSpace : 2*actionSpace]
	s.Probs = slab[2*actionSpace : 3*actionSpace : 3*actionSpace]
	s.LogProbs = slab[3*actionSpace : 4*actionSpace : 4*actionSpace]
	return s
}
