package main

import (
	"encoding/json"
	"fmt"
	"math/rand"

	csj "github.com/opencsj/csj"
	"github.com/opencsj/csj/internal/dataset"
	"github.com/opencsj/csj/internal/server"
)

// Every corpus is a pure function of the seed, so the end-to-end run,
// the traced replay and the answer oracle all see the same inputs.

// vkPool draws n VK-like user profiles (27 dimensions, heavy-tailed
// activity) from one generator.
func vkPool(rng *rand.Rand, n int) []csj.Vector {
	gen := dataset.NewVKGenerator(rng, -1)
	pool := make([]csj.Vector, n)
	for i := range pool {
		pool[i] = []int32(gen.User())
	}
	return pool
}

// overlapCommunity builds a community of size users: a share drawn from
// the shared pool (so two communities have subscribers in common and
// the matcher has edges to resolve; a few of those copies are moved by
// one like), the rest fresh profiles from gen.
func overlapCommunity(rng *rand.Rand, gen *dataset.VKGenerator, shared []csj.Vector, name string, size int, sharedShare float64) *csj.Community {
	users := make([]csj.Vector, size)
	for i := range users {
		if rng.Float64() < sharedShare {
			src := shared[rng.Intn(len(shared))]
			if rng.Float64() < 0.1 {
				users[i] = []int32(gen.Perturb(src, dataset.EpsilonVK))
			} else {
				users[i] = append(csj.Vector(nil), src...)
			}
		} else {
			users[i] = []int32(gen.User())
		}
	}
	return &csj.Community{Name: name, Category: -1, Users: users}
}

// pairsCorpus is the pairs-cold corpus: n VK communities of size±10%
// users, 40% of each drawn from a shared pool.
func pairsCorpus(seed int64, n, size int) []*csj.Community {
	rng := rand.New(rand.NewSource(seed))
	shared := vkPool(rng, 1500)
	out := make([]*csj.Community, n)
	for c := range out {
		gen := dataset.NewVKGenerator(rng, c%dataset.Dim)
		sz := size - size/10 + rng.Intn(size/5+1)
		out[c] = overlapCommunity(rng, gen, shared, fmt.Sprintf("brand-%03d", c), sz, 0.4)
	}
	return out
}

// topkCorpus is the topk-sharded corpus, shaped like the envelope-index
// benchmark's: n small communities in dims dimensions, clustered around
// archetypes whose per-dimension bases are drawn from [5000, 500000),
// so at epsilon 1500 almost every archetype pair is provably disjoint.
func topkCorpus(seed int64, n, dims, archetypes, size int) []*csj.Community {
	rng := rand.New(rand.NewSource(seed))
	bases := make([][]int32, archetypes)
	for a := range bases {
		b := make([]int32, dims)
		for j := range b {
			b[j] = 5000 + rng.Int31n(495000)
		}
		bases[a] = b
	}
	out := make([]*csj.Community, n)
	for i := range out {
		// Sizes within ±20% keep every pair inside the CSJ size
		// precondition, so no candidate is skipped.
		sz := size - size/5 + rng.Intn(2*(size/5)+1)
		// Round-robin archetypes give every cluster the same size, so a
		// pivot's cost does not depend on which cluster the seed gave
		// more members.
		base := bases[i%archetypes]
		users := make([]csj.Vector, sz)
		for u := range users {
			v := make([]int32, dims)
			for j := range v {
				v[j] = base[j] + rng.Int31n(200)
			}
			users[u] = v
		}
		out[i] = &csj.Community{Name: fmt.Sprintf("c%05d", i), Category: -1, Users: users}
	}
	return out
}

// churnSource generates the ingest-churn stream: community i is a pure
// function of (seed, i), drawn from a fixed user pool, so any
// community can be rebuilt for the oracle without keeping it.
type churnSource struct {
	seed int64
	size int
	pool []csj.Vector // the first hot users are shared by most communities
	hot  int
}

func newChurnSource(seed int64, size int) *churnSource {
	rng := rand.New(rand.NewSource(seed))
	return &churnSource{seed: seed, size: size, pool: vkPool(rng, 20000), hot: 1000}
}

func (s *churnSource) community(i int) *csj.Community {
	rng := rand.New(rand.NewSource(s.seed*1_000_003 + int64(i)))
	sz := s.size - s.size/10 + rng.Intn(s.size/5+1)
	users := make([]csj.Vector, sz)
	for u := range users {
		if rng.Float64() < 0.3 {
			users[u] = s.pool[rng.Intn(s.hot)]
		} else {
			users[u] = s.pool[rng.Intn(len(s.pool))]
		}
	}
	return &csj.Community{Name: fmt.Sprintf("live-%06d", i), Category: -1, Users: users}
}

// uploadBody is the POST /communities body of c.
func uploadBody(c *csj.Community) ([]byte, error) {
	p := server.CommunityPayload{Name: c.Name, Category: c.Category, Users: make([][]int32, len(c.Users))}
	for i, u := range c.Users {
		p.Users[i] = u
	}
	return json.Marshal(p)
}

// viewBytes is the total prepared-view footprint of the corpus under
// opts: what the server's view cache would hold with every view
// resident.
func viewBytes(comms []*csj.Community, opts *csj.Options) (int64, error) {
	var total int64
	for _, c := range comms {
		pc, err := csj.Precompute(c, opts)
		if err != nil {
			return 0, err
		}
		total += pc.Footprint()
	}
	return total, nil
}

// userCount sums the community sizes.
func userCount(comms []*csj.Community) int {
	n := 0
	for _, c := range comms {
		n += c.Size()
	}
	return n
}
