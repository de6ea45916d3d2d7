package hdc

// RankKey is one vertex's centrality sort key: Score descending, then
// Tie ascending. Its layout, the score then the tie, is the rank-count
// kernel's ABI.
type RankKey struct {
	Score float64
	Tie   uint64
}

// Less reports whether a sorts before b.
func (a RankKey) Less(b RankKey) bool {
	return a.Score > b.Score || a.Score == b.Score && a.Tie < b.Tie
}

// MaxRankCount is the most keys RankCountInto ranks: eight lanes of eight.
const MaxRankCount = 64

// RankCountInto sets dst[v] to the number of keys that sort before
// keys[v] — its sorted position, when the ties are distinct — and reports
// true. It reports false, leaving the ranks to the caller's sort, when
// the active tier has no rank-count kernel, when there are more than
// MaxRankCount keys or fewer than len(keys) slots in dst, when cap(keys)
// does not reach a whole number of eight-key groups (the kernel reads
// them in full), or when a score is NaN, under which a count is no
// permutation; dst may then be partly written.
func RankCountInto(keys []RankKey, dst []int) bool {
	n := len(keys)
	kern := loadKernels()
	if kern.rankCount == nil || n == 0 || n > MaxRankCount || len(dst) < n || cap(keys) < (n+7)&^7 {
		return false
	}
	return kern.rankCount(&keys[0], int64(n), &dst[0])
}
