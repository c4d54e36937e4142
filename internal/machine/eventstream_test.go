package machine

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"sort"
	"strings"
	"testing"

	"asap/internal/config"
	"asap/internal/model"
	"asap/internal/stats"
	"asap/internal/workload"
)

// eventStreamRow pins one run's event stream: the number of events the
// engine dispatched, the execution time, the final clock, and a digest of
// every counter (sorted "name=value" lines, SHA-256, first 16 hex digits).
type eventStreamRow struct {
	dispatched uint64
	cycles     uint64
	end        uint64
	counters   string
}

// eventStreamConfigs are the two machine shapes the pin covers: the
// paper's Table II machine, and a tight one whose 8-entry persist
// buffers, 2-entry epoch tables and 2-flush cap make every model take its
// PB-full, epoch-table-full and inflight-cap paths. Eight entries is as
// small as LB++ goes on p_art: it flushes only closed epochs, so an open
// epoch that outgrows the buffer stalls its own store forever.
func eventStreamConfigs() map[string]config.Config {
	tight := config.Default()
	tight.PBEntries = 8
	tight.ETEntries = 2
	tight.RTEntries = 4
	tight.PBMaxInflight = 2
	return map[string]config.Config{"default": config.Default(), "tight": tight}
}

// counterDigest hashes every counter of a run in name order.
func counterDigest(st *stats.Set) string {
	cs := st.CounterValues()
	lines := make([]string, 0, len(cs))
	for _, cv := range cs {
		lines = append(lines, fmt.Sprintf("%s=%d", cv.Name, cv.Value))
	}
	sort.Strings(lines)
	sum := sha256.Sum256([]byte(strings.Join(lines, "\n")))
	return hex.EncodeToString(sum[:8])
}

// TestModelEventStream pins the exact event stream of every model on a
// hash table, a tree and a WHISPER application at small scale, on both
// eventStreamConfigs. A model refactor that keeps the golden tables but
// adds, drops or reorders an event changes the dispatched count or the
// cycle count here. A failing row prints its replacement table line.
func TestModelEventStream(t *testing.T) {
	cfgs := eventStreamConfigs()
	for _, wl := range []string{"cceh", "p_art", "echo"} {
		tr, err := workload.Generate(wl, diffParams())
		if err != nil {
			t.Fatal(err)
		}
		for _, cfgName := range []string{"default", "tight"} {
			for _, mdl := range model.ExtendedNames() {
				key := wl + "/" + cfgName + "/" + mdl
				m, err := New(cfgs[cfgName], mdl, tr)
				if err != nil {
					t.Fatal(err)
				}
				res := m.Run(50_000_000)
				if !m.allDone() {
					t.Fatalf("%s did not finish", key)
				}
				row := eventStreamRow{m.Eng.Dispatched(), res.Cycles, res.End, counterDigest(res.Stats)}
				if want, ok := eventStreamWant[key]; !ok || row != want {
					t.Errorf("%s: got {dispatched %d, cycles %d, end %d, counters %s}, want %+v; table line:\n\t%q: {%d, %d, %d, %q},",
						key, row.dispatched, row.cycles, row.end, row.counters, want,
						key, row.dispatched, row.cycles, row.end, row.counters)
				}
			}
		}
	}
}

// eventStreamWant: workload/config/model -> {dispatched, cycles, end,
// counter digest}.
var eventStreamWant = map[string]eventStreamRow{
	"cceh/default/baseline":      {9624, 88106, 88200, "e28e2123ee358958"},
	"cceh/default/hops_ep":       {13442, 86130, 86200, "04a8582de42c24c8"},
	"cceh/default/hops_rp":       {12893, 79091, 79200, "d20622c699045004"},
	"cceh/default/asap_ep":       {14034, 74033, 74200, "ecf93acd5dbff40e"},
	"cceh/default/asap_rp":       {13570, 73815, 74000, "2b8afd667919d27c"},
	"cceh/default/eadr":          {5663, 61294, 61400, "1e1998948d670a6f"},
	"cceh/default/lbpp":          {13032, 77785, 77819, "4b61e7b3676697ab"},
	"cceh/default/dpo":           {12832, 77185, 77219, "d56cf5adcf73af00"},
	"cceh/default/lrp":           {12768, 77185, 77219, "50de4106b3c2c4eb"},
	"cceh/default/vorpal":        {13057, 103173, 103647, "7f7d56b4072c8402"},
	"cceh/default/strandweaver":  {13509, 77182, 77216, "67e8b403e8caff7c"},
	"cceh/default/pmem_spec":     {10200, 207456, 207600, "04131281e3513580"},
	"cceh/tight/baseline":        {9628, 88646, 88800, "ae8d10daf430ff3e"},
	"cceh/tight/hops_ep":         {12953, 85937, 86000, "d7277171fc3234a8"},
	"cceh/tight/hops_rp":         {12381, 78951, 79000, "e57364dffb1cfecc"},
	"cceh/tight/asap_ep":         {13447, 76330, 76400, "9780e66b621e7382"},
	"cceh/tight/asap_rp":         {12834, 73775, 73800, "f484e0aba3dd4077"},
	"cceh/tight/eadr":            {5663, 61294, 61400, "1e1998948d670a6f"},
	"cceh/tight/lbpp":            {12443, 78529, 78600, "479ecbd746fd2c3e"},
	"cceh/tight/dpo":             {12322, 76980, 77014, "7c08a5597e90ca6f"},
	"cceh/tight/lrp":             {12289, 76980, 77014, "db345cc096440c17"},
	"cceh/tight/vorpal":          {12292, 103549, 104023, "9c18e8e1717e6023"},
	"cceh/tight/strandweaver":    {13259, 76938, 77000, "e6c75ac54fa575dd"},
	"cceh/tight/pmem_spec":       {10200, 207456, 207600, "04131281e3513580"},
	"p_art/default/baseline":     {9081, 60192, 60219, "f35c2f429dfe621f"},
	"p_art/default/hops_ep":      {13944, 72987, 73021, "151e2d6e12a21df9"},
	"p_art/default/hops_rp":      {13366, 54399, 54433, "659f5c24462e04bf"},
	"p_art/default/asap_ep":      {15735, 47880, 48000, "0da2880403a3ef58"},
	"p_art/default/asap_rp":      {14878, 48038, 48200, "3ea992e734660ec8"},
	"p_art/default/eadr":         {4373, 34493, 34600, "bc9aa9a18e3526dc"},
	"p_art/default/lbpp":         {13397, 53246, 53400, "74cebef66283b53e"},
	"p_art/default/dpo":          {13349, 50835, 51000, "72900f9efbded758"},
	"p_art/default/lrp":          {13358, 50852, 51000, "766a5455f0effa42"},
	"p_art/default/vorpal":       {13871, 92029, 92503, "eee5f80aa15801a4"},
	"p_art/default/strandweaver": {14266, 50833, 51000, "23050767711d4db4"},
	"p_art/default/pmem_spec":    {11971, 516690, 516800, "a34418973dd1ec46"},
	"p_art/tight/baseline":       {9093, 62322, 62400, "2d989a234177a064"},
	"p_art/tight/hops_ep":        {13242, 76355, 76400, "091d5bac6a14550d"},
	"p_art/tight/hops_rp":        {12592, 58142, 58200, "12550480d047b12c"},
	"p_art/tight/asap_ep":        {14675, 58097, 58200, "c8cab34dea7349bb"},
	"p_art/tight/asap_rp":        {13514, 54965, 55000, "ae0091e7ff75aacd"},
	"p_art/tight/eadr":           {4373, 34493, 34600, "bc9aa9a18e3526dc"},
	"p_art/tight/lbpp":           {12486, 58021, 58200, "fd19843df5807a47"},
	"p_art/tight/dpo":            {12581, 54776, 54810, "a0f04d873bdffe88"},
	"p_art/tight/lrp":            {12569, 54776, 54810, "040fc46d116808d6"},
	"p_art/tight/vorpal":         {12411, 92529, 93003, "61b971a86f545a88"},
	"p_art/tight/strandweaver":   {13717, 54917, 55000, "70afc6659723b0a7"},
	"p_art/tight/pmem_spec":      {11971, 516690, 516800, "a34418973dd1ec46"},
	"echo/default/baseline":      {5560, 53189, 53216, "340c523390d10214"},
	"echo/default/hops_ep":       {8080, 37857, 38000, "ff44dfa095716ca9"},
	"echo/default/hops_rp":       {8077, 37857, 38000, "796d71b67516c56a"},
	"echo/default/asap_ep":       {10774, 26256, 26400, "f690482352a48ce2"},
	"echo/default/asap_rp":       {10730, 26256, 26400, "f3902c94b6285860"},
	"echo/default/eadr":          {2207, 22450, 22600, "f11b724e2440c766"},
	"echo/default/lbpp":          {8043, 34014, 34200, "8357f17c7b1f2017"},
	"echo/default/dpo":           {7947, 33958, 34000, "112b39614b57efb4"},
	"echo/default/lrp":           {7910, 33958, 34000, "ac3d2f7d9b8b8cf2"},
	"echo/default/vorpal":        {8030, 105697, 106171, "89c4c4ea10f6e625"},
	"echo/default/strandweaver":  {8776, 33957, 34000, "1e469ae2cd29067f"},
	"echo/default/pmem_spec":     {7846, 483223, 483400, "a280480a236f065d"},
	"echo/tight/baseline":        {5560, 53189, 53216, "340c523390d10214"},
	"echo/tight/hops_ep":         {8057, 45802, 46000, "4edde85b5f7f5e4c"},
	"echo/tight/hops_rp":         {7998, 44427, 44600, "9b2a45d53294bad9"},
	"echo/tight/asap_ep":         {9798, 39636, 39800, "4bbe2291e8cefc61"},
	"echo/tight/asap_rp":         {9669, 39064, 39200, "b374824dd3c3551c"},
	"echo/tight/eadr":            {2207, 22450, 22600, "f11b724e2440c766"},
	"echo/tight/lbpp":            {7536, 42348, 42400, "4ba9e0045e9b7317"},
	"echo/tight/dpo":             {7921, 41200, 41400, "f196b531ca86573e"},
	"echo/tight/lrp":             {7923, 41202, 41400, "1d1e53ae98f0558e"},
	"echo/tight/vorpal":          {7686, 105697, 106171, "8a414ef0a1434331"},
	"echo/tight/strandweaver":    {8777, 33957, 34000, "b113c0674ded6bea"},
	"echo/tight/pmem_spec":       {7846, 483223, 483400, "a280480a236f065d"},
}
