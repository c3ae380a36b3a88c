// Package eval measures signature schemes against the paper's three
// properties — persistence, uniqueness, robustness (§II-C) — and
// implements the ROC/AUC machinery of §IV-C used to capture the
// persistence/uniqueness trade-off in one statistic.
package eval

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"sort"

	"graphsig/internal/distmat"
)

// Query is one ranked-retrieval evaluation: candidates scored by
// distance (lower ranks higher) with known relevance.
type Query struct {
	// Scores[i] is the distance of candidate i from the query signature.
	Scores []float64
	// Positive[i] marks candidate i as a true match.
	Positive []bool
}

var errNoNegative = errors.New("eval: query has no negative candidate")

func errNaNScore(i int) error { return fmt.Errorf("eval: query score %d is NaN", i) }

// Validate reports structural problems with the query.
func (q *Query) Validate() error {
	if len(q.Scores) != len(q.Positive) {
		return fmt.Errorf("eval: query has %d scores but %d labels", len(q.Scores), len(q.Positive))
	}
	pos, neg := 0, 0
	for i, s := range q.Scores {
		if math.IsNaN(s) {
			return errNaNScore(i)
		}
		if q.Positive[i] {
			pos++
		} else {
			neg++
		}
	}
	if pos == 0 {
		return fmt.Errorf("eval: query has no positive candidate")
	}
	if neg == 0 {
		return errNoNegative
	}
	return nil
}

// AUC computes the area under the ROC curve for one query by the
// Mann-Whitney U statistic: the probability that a random positive
// scores strictly below a random negative, counting ties as ½. This is
// exactly the area traced by the paper's up/right ROC walk with the
// mid-rank convention for tied distances.
func (q *Query) AUC() (float64, error) {
	if err := q.Validate(); err != nil {
		return 0, err
	}
	var buf [16]float64
	positives := buf[:0]
	for i, s := range q.Scores {
		if q.Positive[i] {
			positives = append(positives, s)
		}
	}
	slices.Sort(positives)
	var c aucCount
	for i, s := range q.Scores {
		if !q.Positive[i] {
			c.negative(positives, s)
		}
	}
	return c.auc(len(positives), len(q.Scores)-len(positives)), nil
}

// aucCount is the Mann-Whitney count: nothing is ranked, every negative
// credits the positives it loses to and the ones it draws with. Both
// counts are integers, so the statistic is exact in any order.
type aucCount struct {
	wins, ties int
}

// negative counts one negative scoring s against positives, which
// ascend and hold no NaN.
func (c *aucCount) negative(positives []float64, s float64) {
	if p := positives[0]; len(positives) == 1 {
		// Self-retrieval: 4M of these a pass, two compares each.
		if p < s {
			c.wins++
		} else if p == s {
			c.ties++
		}
		return
	}
	lo, tied := slices.BinarySearch(positives, s)
	c.wins += lo
	if tied {
		// The first positive above s, among those from lo on.
		hi, _ := slices.BinarySearchFunc(positives[lo:], s, func(p, s float64) int {
			if p > s {
				return 1
			}
			return -1
		})
		c.ties += hi
	}
}

// auc is (wins + ½·ties) over the number of (positive, negative) pairs.
func (c *aucCount) auc(positives, negatives int) float64 {
	u := float64(c.wins) + 0.5*float64(c.ties)
	return u / (float64(positives) * float64(negatives))
}

// selfAUC is Query.AUC of the query over n columns whose one positive
// is column p, given the row's candidates and checked as Validate would
// check it. Only the candidates are compared: every other column is a
// negative at exactly 1, which the positive wins against if it scores
// below 1 and ties if it scores 1, so they are added in closed form.
// Wins and ties are integers, so the AUC is the dense count's to the
// bit.
func selfAUC(row distmat.Candidates, p, n int) (float64, error) {
	score, nan := 1.0, -1 // the positive's distance; the first NaN column
	for k, j := range row.Cols {
		if math.IsNaN(row.Dist[k]) && (nan < 0 || int(j) < nan) {
			nan = int(j)
		}
		if int(j) == p {
			score = row.Dist[k]
		}
	}
	if nan >= 0 {
		return 0, errNaNScore(nan)
	}
	if n < 2 {
		return 0, errNoNegative
	}
	var c aucCount
	positive := [1]float64{score}
	rest := n - 1 // negatives outside the candidates
	for k, j := range row.Cols {
		if int(j) != p {
			c.negative(positive[:], row.Dist[k])
			rest--
		}
	}
	if score < 1 {
		c.wins += rest
	} else if score == 1 {
		c.ties += rest
	}
	return c.auc(1, n-1), nil
}

// MeanAUC averages per-query AUC values, the statistic Figures 3 and 4
// report.
func MeanAUC(queries []Query) (float64, error) {
	if len(queries) == 0 {
		return 0, fmt.Errorf("eval: MeanAUC over zero queries")
	}
	sum := 0.0
	for i := range queries {
		a, err := queries[i].AUC()
		if err != nil {
			return 0, fmt.Errorf("eval: query %d: %w", i, err)
		}
		sum += a
	}
	return sum / float64(len(queries)), nil
}

// Curve is an ROC curve sampled at monotone (FPR, TPR) points starting
// at (0,0) and ending at (1,1).
type Curve struct {
	FPR []float64
	TPR []float64
}

// AverageROC averages the ROC curves of several queries on a uniform
// FPR grid with the given number of points (vertical averaging), the
// way Figures 2 and 5 aggregate per-node curves.
func AverageROC(queries []Query, points int) (Curve, error) {
	if points < 2 {
		return Curve{}, fmt.Errorf("eval: AverageROC needs at least 2 grid points")
	}
	if len(queries) == 0 {
		return Curve{}, fmt.Errorf("eval: AverageROC over zero queries")
	}
	grid := make([]float64, points)
	tpr := make([]float64, points)
	for i := range grid {
		grid[i] = float64(i) / float64(points-1)
	}
	for qi := range queries {
		q := &queries[qi]
		if err := q.Validate(); err != nil {
			return Curve{}, fmt.Errorf("eval: query %d: %w", qi, err)
		}
		fpr, t := rocPoints(q)
		for i := range grid {
			tpr[i] += interpROC(fpr, t, grid[i])
		}
	}
	for i := range tpr {
		tpr[i] /= float64(len(queries))
	}
	return Curve{FPR: grid, TPR: tpr}, nil
}

// rocPoints walks the ranked list emitting one point per tie group,
// sharing a tie group's positives and negatives along the diagonal of
// the group (the mid-rank convention).
func rocPoints(q *Query) (fpr, tpr []float64) {
	type sc struct {
		s   float64
		pos bool
	}
	all := make([]sc, len(q.Scores))
	nPos, nNeg := 0, 0
	for i := range q.Scores {
		all[i] = sc{q.Scores[i], q.Positive[i]}
		if q.Positive[i] {
			nPos++
		} else {
			nNeg++
		}
	}
	sort.Slice(all, func(i, j int) bool { return all[i].s < all[j].s })
	fpr = []float64{0}
	tpr = []float64{0}
	seenPos, seenNeg := 0, 0
	i := 0
	for i < len(all) {
		j := i
		tiePos, tieNeg := 0, 0
		for j < len(all) && all[j].s == all[i].s {
			if all[j].pos {
				tiePos++
			} else {
				tieNeg++
			}
			j++
		}
		seenPos += tiePos
		seenNeg += tieNeg
		fpr = append(fpr, float64(seenNeg)/float64(nNeg))
		tpr = append(tpr, float64(seenPos)/float64(nPos))
		i = j
	}
	return fpr, tpr
}

// interpROC evaluates the piecewise-linear curve at x. Where the curve
// is vertical (several points share one FPR), the topmost TPR applies:
// that is the best recall achievable at exactly that false-positive
// rate.
func interpROC(fpr, tpr []float64, x float64) float64 {
	// Largest index whose FPR is ≤ x.
	last := 0
	for i := range fpr {
		if fpr[i] <= x {
			last = i
		} else {
			break
		}
	}
	if fpr[last] == x || last == len(fpr)-1 {
		return tpr[last]
	}
	frac := (x - fpr[last]) / (fpr[last+1] - fpr[last])
	return tpr[last] + frac*(tpr[last+1]-tpr[last])
}

// AUC computes the area under this curve by the trapezoid rule; useful
// for averaged curves (per-query AUC should use Query.AUC).
func (c Curve) AUC() float64 {
	area := 0.0
	for i := 1; i < len(c.FPR); i++ {
		area += (c.FPR[i] - c.FPR[i-1]) * (c.TPR[i] + c.TPR[i-1]) / 2
	}
	return area
}
