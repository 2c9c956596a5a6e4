package xmlgen

// The paper's query side of the evaluation: the Table 2 query
// categories and the Appendix-A query suite of each Table 1 dataset.
// They live next to the generators because the suites are adapted to
// the generators' vocabularies; cmd/xmlgen -list prints them.

// Category is one of the six selectivity × topology classes of Table 2.
type Category string

// Table 2 categories: {high, moderate, low} selectivity × {chain,
// branching} topology.
const (
	HC Category = "hc"
	HB Category = "hb"
	MC Category = "mc"
	MB Category = "mb"
	LC Category = "lc"
	LB Category = "lb"
)

// Table2 lists the categories with their generic example queries, as
// printed in the paper's Table 2.
var Table2 = []struct {
	Category Category
	Meaning  string
	Example  string
}{
	{HC, "high selectivity (≈1%), chain", "/a/b//[c/d//e]"},
	{HB, "high selectivity (≈1%), branching", "/a//b[//c/d]//e/f"},
	{MC, "moderate selectivity (≈10%), chain", "//a//b//c"},
	{MB, "moderate selectivity (≈10%), branching", "//a/b[//c][//d][//e]"},
	{LC, "low selectivity (≈50%), chain", "//a//b"},
	{LB, "low selectivity (≈50%), branching", "//a[//b][//c]//e"},
}

// Query is one benchmark query of a dataset's suite.
type Query struct {
	ID       string // "Q1".."Q6"
	Category Category
	Text     string
}

// suites holds the Appendix-A query suites, adapted where needed to the
// synthetic generators' vocabularies (chain queries over d1's random
// recursive nesting use one-step-shorter chains so the selectivity
// classes survive the 1/40 default scale; d3's Q5 relies on authors
// carrying mailing_address wrappers, which the generator produces).
var suites = map[string][]Query{
	"d1": {
		{"Q1", HC, `//a//b4`},
		{"Q2", HB, `//a[//b2][//b1]//b3`},
		{"Q3", MC, `//a//c2/b1//c3`},
		{"Q4", MB, `//a//c2[//b1]/b1//c3`},
		{"Q5", LC, `//b1//c2//b1`},
		{"Q6", LB, `//b1//c2[//c3]//b1`},
	},
	"d2": {
		{"Q1", HC, `//addresses//street_address//name_of_state`},
		{"Q2", HB, `//addresses[//zip_code][//country_id]`},
		{"Q3", MC, `//addresses//street_address`},
		{"Q4", MB, `//address[//name_of_state][//zip_code]//street_address`},
		{"Q5", LC, `//address[//street_address]`},
		{"Q6", LB, `//address[//street_address][//zip_code][//name_of_city]`},
	},
	"d3": {
		{"Q1", HC, `//item/attributes//length`},
		{"Q2", HB, `//item/title[//author/contact_information//street_address]`},
		{"Q3", MC, `//publisher//street_information//street_address`},
		{"Q4", MB, `//publisher[//mailing_address]//street_address`},
		{"Q5", LC, `//author//mailing_address//street_address`},
		{"Q6", LB, `//author[date_of_birth][//last_name]//street_address`},
	},
	"d4": {
		{"Q1", HC, `//VP//VP/NP//PP/PP`},
		{"Q2", HB, `//VP[VP]//VP[PP]/NP[PP]/NN`},
		{"Q3", MC, `//VP/VP/NP//NN`},
		{"Q4", MB, `//VP[VP]//VP/NP//NN`},
		{"Q5", LC, `//VP//VP/NP//PP/IN`},
		{"Q6", LB, `//VP[//NP][//VB]//JJ`},
	},
	"d5": {
		{"Q1", HC, `//phdthesis//author`},
		{"Q2", HB, `//phdthesis[//author][//school]`},
		{"Q3", MC, `//www[//url]`},
		{"Q4", MB, `//www[//editor][//title][//year]`},
		{"Q5", LC, `//proceedings[//editor]`},
		{"Q6", LB, `//proceedings[//editor][//year][//url]`},
	},
}

// Suite returns the six Appendix-A queries of a dataset.
func Suite(dataset string) []Query { return suites[dataset] }
