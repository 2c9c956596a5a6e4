// Quickstart: load an XML document, run a path query and a FLWOR query,
// and inspect the physical plan the optimizer picked. Query and Explain
// are the no-options spellings of each family's one entry point,
// QueryWithContext and ExplainWithContext (context first, then Options).
package main

import (
	"fmt"
	"log"

	"blossomtree"
)

const bib = `<bib>
  <book year="1994"><title>Maximum Security</title><price>39</price></book>
  <book year="1997"><title>The Art of Computer Programming</title>
    <author><last>Knuth</last><first>Donald</first></author><price>120</price></book>
  <book year="2003"><title>Terrorist Hunter</title><price>25</price></book>
  <book year="1984"><title>TeX Book</title>
    <author><last>Knuth</last><first>Donald</first></author><price>30</price></book>
</bib>`

func main() {
	eng := blossomtree.NewEngine()
	if err := eng.LoadString("bib.xml", bib); err != nil {
		log.Fatal(err)
	}

	// A path query: titles of books written by Knuth.
	res, err := eng.Query(`//book[author/last="Knuth"]/title`)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("Knuth titles:")
	for _, n := range res.Nodes() {
		fmt.Println("  -", n.Text())
	}

	// A FLWOR query with a constructor: cheap books, ordered by title.
	res, err = eng.Query(`
		for $b in doc("bib.xml")//book
		where $b/price < 50
		order by $b/title
		return <cheap>{ $b/title }</cheap>`)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\nCheap books (constructed XML):")
	fmt.Println(res.XMLIndent())

	// Row access: variable bindings per iteration.
	fmt.Println("Prices per row:")
	for _, row := range res.Rows() {
		book := row["b"][0]
		fmt.Printf("  %s: %s\n", book.Children("title")[0].Text(), book.Children("price")[0].Text())
	}

	// What did the optimizer do?
	plan, err := eng.Explain(`//book[author]//last`)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\nPhysical plan for //book[author]//last:")
	fmt.Println(plan)
}
