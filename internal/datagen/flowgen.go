package datagen

import (
	"fmt"
	"math"
	"time"

	"graphsig/internal/graph"
	"graphsig/internal/netflow"
	"graphsig/internal/stats"
)

// EnterpriseConfig parameterizes the synthetic enterprise-flow workload
// standing in for the paper's six-week capture (>300 local hosts, TCP
// flows to external hosts, five-weekday windows, average local out-degree
// ~20 so that k=10 is half of it).
type EnterpriseConfig struct {
	Seed int64

	// LocalHosts is the number of observable local labels (|V1|).
	LocalHosts int
	// ExternalHosts is the number of external labels (|V2|).
	ExternalHosts int
	// Communities is the number of host communities (departments).
	Communities int
	// Windows is the number of aggregation windows.
	Windows int

	// PopularHead is how many globally popular destinations exist
	// (search, mail, update servers): the high in-degree nodes that make
	// the UT scheme interesting.
	PopularHead int
	// HeadPicks / CommunityPicks / PersonalPicks size each profile pool.
	HeadPicks      int
	CommunityPicks int
	PersonalPicks  int
	// CommunityPoolSize is the number of destinations shared by one
	// community.
	CommunityPoolSize int
	// HeadMass / CommunityMass / PersonalMass split the preference
	// probability mass between the pools; they should sum to ~1.
	HeadMass      float64
	CommunityMass float64
	PersonalMass  float64

	// MeanFlows is the mean number of flow records a host emits per
	// window (Poisson, scaled by a per-host lognormal activity level).
	MeanFlows float64
	// Novelty is the probability that a flow targets a uniformly random
	// destination outside the host's routine (one-off browsing): the
	// noise that stresses robustness and penalizes in-degree-scaled
	// schemes.
	Novelty float64
	// PersonalActive is the probability that a personal (rare)
	// destination is active in a given window. Rare interests come and
	// go; popular and community destinations persist. This is the
	// frequency↔stability correlation of real traffic.
	PersonalActive float64

	// MultiusageIndividuals is how many hidden individuals control more
	// than one local label (home/office/hotspot presences).
	MultiusageIndividuals int
	// MaxLabelsPerIndividual caps the labels one individual controls.
	MaxLabelsPerIndividual int

	// WindowLength is the wall-clock span of one window (the paper uses
	// five weekdays).
	WindowLength time.Duration
	// Origin is the capture start time.
	Origin time.Time
}

// DefaultEnterpriseConfig mirrors the paper's data at laptop scale.
func DefaultEnterpriseConfig(seed int64) EnterpriseConfig {
	return EnterpriseConfig{
		Seed:                   seed,
		LocalHosts:             300,
		ExternalHosts:          8000,
		Communities:            15,
		Windows:                6,
		PopularHead:            40,
		HeadPicks:              8,
		CommunityPicks:         12,
		PersonalPicks:          25,
		CommunityPoolSize:      36,
		HeadMass:               0.06,
		CommunityMass:          0.34,
		PersonalMass:           0.60,
		MeanFlows:              42,
		Novelty:                0.15,
		PersonalActive:         0.5,
		MultiusageIndividuals:  20,
		MaxLabelsPerIndividual: 3,
		WindowLength:           5 * 24 * time.Hour,
		Origin:                 time.Date(2026, 1, 5, 0, 0, 0, 0, time.UTC),
	}
}

func (c *EnterpriseConfig) validate() error {
	switch {
	case c.LocalHosts <= 0:
		return fmt.Errorf("datagen: LocalHosts must be positive")
	case c.ExternalHosts <= c.PopularHead:
		return fmt.Errorf("datagen: ExternalHosts must exceed PopularHead")
	case c.ExternalHosts-c.PopularHead < c.CommunityPoolSize:
		// A community pool is that many distinct hosts of the tail.
		return fmt.Errorf("datagen: ExternalHosts %d less PopularHead %d leaves fewer tail hosts than CommunityPoolSize %d",
			c.ExternalHosts, c.PopularHead, c.CommunityPoolSize)
	case c.Communities <= 0:
		return fmt.Errorf("datagen: Communities must be positive")
	case c.Windows <= 0:
		return fmt.Errorf("datagen: Windows must be positive")
	case c.Novelty < 0 || c.Novelty >= 1:
		return fmt.Errorf("datagen: Novelty must be in [0,1)")
	case c.PersonalActive <= 0 || c.PersonalActive > 1:
		return fmt.Errorf("datagen: PersonalActive must be in (0,1]")
	case c.MeanFlows <= 0:
		return fmt.Errorf("datagen: MeanFlows must be positive")
	case c.MultiusageIndividuals*c.MaxLabelsPerIndividual > c.LocalHosts:
		return fmt.Errorf("datagen: multiusage labels exceed LocalHosts")
	case c.WindowLength <= 0:
		return fmt.Errorf("datagen: WindowLength must be positive")
	}
	return nil
}

// EnterpriseData is the generated workload: the raw flow records (as a
// real capture would provide), the aggregated per-window communication
// graphs, and the hidden ground truth.
type EnterpriseData struct {
	Config   EnterpriseConfig
	Records  []netflow.Record
	Universe *graph.Universe
	Windows  []*graph.Window
	Truth    Truth
}

// LocalLabel names local host i ("10.0.x.y").
func LocalLabel(i int) string {
	return fmt.Sprintf("10.0.%d.%d", i/250, i%250)
}

// ExternalLabel names external host j.
func ExternalLabel(j int) string {
	return fmt.Sprintf("198.%d.%d.%d", 18+j/62500, (j/250)%250, j%250)
}

// LocalClassifier splits the enterprise universe: local hosts are Part1.
var LocalClassifier = netflow.PrefixClassifier("10.")

// GenerateEnterprise produces the full synthetic capture and the
// aggregated windows. All randomness derives from cfg.Seed.
func GenerateEnterprise(cfg EnterpriseConfig) (*EnterpriseData, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	root := stats.NewRNG(cfg.Seed)

	// External popularity: Zipf over all destinations; the head indices
	// [0, PopularHead) form the globally popular pool.
	popRNG := root.Split("external-popularity")
	popular := make([]int, cfg.PopularHead)
	for i := range popular {
		popular[i] = i
	}
	// Personal picks are sampled Zipf over the non-head tail so that
	// some personal destinations are shared between hosts (giving UT's
	// denominator a spread of in-degrees) while most are rare.
	// A gently decaying tail: popular-ish personal destinations are
	// shared by a handful of hosts (spreading UT's in-degree
	// denominator) without making any two hosts near-twins by chance.
	tail := cfg.ExternalHosts - cfg.PopularHead
	tailWeights := make([]float64, tail)
	for i := range tailWeights {
		tailWeights[i] = math.Pow(float64(i+1), -0.85)
	}
	personalSpace, err := stats.NewWeighted(popRNG, tailWeights)
	if err != nil {
		return nil, fmt.Errorf("datagen: personal space: %w", err)
	}

	// Community pools: distinct slices of the tail, shifted so pools
	// overlap slightly between neighbouring communities.
	commRNG := root.Split("communities")
	pools := make([][]int, cfg.Communities)
	for c := range pools {
		pool := make([]int, 0, cfg.CommunityPoolSize)
		seen := map[int]struct{}{}
		for len(pool) < cfg.CommunityPoolSize {
			d := cfg.PopularHead + personalSpaceSampleBiased(commRNG, tail, c, cfg.Communities)
			if _, dup := seen[d]; dup {
				continue
			}
			seen[d] = struct{}{}
			pool = append(pool, d)
		}
		pools[c] = pool
	}

	// Individuals and label assignment.
	individuals, labelOwner := assignIndividuals(root.Split("individuals"), cfg)

	// The individual contributes the identity-bearing traffic shared by
	// all of its labels: the personal destination set and the habitual
	// popular-head picks. Each *label* additionally carries traffic of
	// its own environment (its community/department), because a person's
	// home, office and hotspot connection points sit in different local
	// environments. This split is what makes one-hop schemes — which key
	// on the shared personal top talkers — the right tool for multiusage
	// detection, exactly as the paper argues (§V).
	type indParts struct {
		personal []int
		head     []int
	}
	parts := make([]indParts, len(individuals))
	for ind := range individuals {
		r := root.SplitN("profile", ind)
		personal := personalSpace.SampleDistinct(cfg.PersonalPicks)
		for i := range personal {
			personal[i] += cfg.PopularHead
		}
		parts[ind] = indParts{
			personal: personal,
			head:     pickDistinct(r, popular, cfg.HeadPicks),
		}
	}
	type hostState struct {
		profile  *profile
		activity float64
	}
	states := make([]hostState, cfg.LocalHosts)
	for label := 0; label < cfg.LocalHosts; label++ {
		r := root.SplitN("host", label)
		community := r.Intn(cfg.Communities)
		ip := parts[labelOwner[label]]
		p, err := buildProfile(r,
			ip.head, cfg.HeadMass,
			pools[community], cfg.CommunityPicks, cfg.CommunityMass,
			ip.personal, cfg.PersonalMass)
		if err != nil {
			return nil, err
		}
		states[label] = hostState{
			profile:  p,
			activity: r.LogNormal(0, 0.35),
		}
	}

	// Emit flow records window by window.
	var records []netflow.Record
	for w := 0; w < cfg.Windows; w++ {
		for label := 0; label < cfg.LocalHosts; label++ {
			st := &states[label]
			r := root.SplitN(fmt.Sprintf("w%d-flows", w), label)
			owner := labelOwner[label]
			active := func(dest int) bool {
				return root.SplitN(fmt.Sprintf("w%d-act-%d", w, owner), dest).
					Bernoulli(cfg.PersonalActive)
			}
			sampler, err := st.profile.windowSampler(r, active)
			if err != nil {
				return nil, fmt.Errorf("datagen: host %d window %d sampler: %w", label, w, err)
			}
			n := r.Poisson(cfg.MeanFlows * st.activity)
			for f := 0; f < n; f++ {
				var dest int
				if r.Bernoulli(cfg.Novelty) {
					dest = r.Intn(cfg.ExternalHosts)
				} else {
					dest = st.profile.dests[sampler.Sample()]
				}
				start := cfg.Origin.
					Add(time.Duration(w) * cfg.WindowLength).
					Add(time.Duration(r.Int63n(int64(cfg.WindowLength))))
				records = append(records, netflow.Record{
					Src:      LocalLabel(label),
					Dst:      ExternalLabel(dest),
					Start:    start,
					Duration: time.Duration(1+r.Intn(120)) * time.Second,
					Sessions: 1,
					Bytes:    int64(200 + r.Intn(500_000)),
					Packets:  int64(2 + r.Intn(800)),
					Proto:    netflow.TCP,
				})
			}
		}
	}

	windows, err := netflow.Aggregate(records, netflow.AggregateOptions{
		WindowSize: cfg.WindowLength,
		Origin:     cfg.Origin,
		Classify:   LocalClassifier,
		TCPOnly:    true,
	})
	if err != nil {
		return nil, fmt.Errorf("datagen: aggregate: %w", err)
	}
	if len(windows) != cfg.Windows {
		// A window with zero flows at the end would shorten the slice;
		// treat that as a misconfiguration (MeanFlows far too small).
		return nil, fmt.Errorf("datagen: produced %d windows, want %d (MeanFlows too small?)", len(windows), cfg.Windows)
	}
	return &EnterpriseData{
		Config:   cfg,
		Records:  records,
		Universe: windows[0].Universe(),
		Windows:  windows,
		Truth:    Truth{Individuals: individuals},
	}, nil
}

// personalSpaceSampleBiased samples a tail index biased toward a
// community-specific region so pools differ between communities while
// still favouring popular tail members.
func personalSpaceSampleBiased(rng *stats.RNG, tail, community, communities int) int {
	region := tail / communities
	if region == 0 {
		return rng.Intn(tail)
	}
	base := community * region
	// 70% of the pool comes from the community's own region, 30% from
	// anywhere in the tail (inter-community overlap).
	if rng.Bernoulli(0.7) {
		// Rank-biased within the region.
		return base + int(float64(region)*rng.Float64()*rng.Float64())
	}
	return rng.Intn(tail)
}

// assignIndividuals creates the hidden individuals and maps each local
// label index to its owning individual index. The first
// MultiusageIndividuals own 2..MaxLabelsPerIndividual labels each.
func assignIndividuals(rng *stats.RNG, cfg EnterpriseConfig) ([]Individual, []int) {
	labelOwner := make([]int, cfg.LocalHosts)
	var individuals []Individual
	label := 0
	for m := 0; m < cfg.MultiusageIndividuals; m++ {
		k := 2
		if cfg.MaxLabelsPerIndividual > 2 {
			k += rng.Intn(cfg.MaxLabelsPerIndividual - 1)
		}
		ind := Individual{ID: fmt.Sprintf("individual-%03d", len(individuals))}
		for j := 0; j < k && label < cfg.LocalHosts; j++ {
			ind.Labels = append(ind.Labels, LocalLabel(label))
			labelOwner[label] = len(individuals)
			label++
		}
		individuals = append(individuals, ind)
	}
	for ; label < cfg.LocalHosts; label++ {
		individuals = append(individuals, Individual{
			ID:     fmt.Sprintf("individual-%03d", len(individuals)),
			Labels: []string{LocalLabel(label)},
		})
		labelOwner[label] = len(individuals) - 1
	}
	return individuals, labelOwner
}
