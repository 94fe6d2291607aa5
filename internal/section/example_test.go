package section_test

import (
	"fmt"

	"repro/internal/section"
)

func ExampleSection() {
	s := section.MustNew(4, 40, 9)
	fmt.Println("elements:", s.Slice())
	fmt.Println("count:", s.Count())
	fmt.Println("contains 22:", s.Contains(22))
	// Output:
	// elements: [4 13 22 31 40]
	// count: 5
	// contains 22: true
}

// Descending sections normalize to ascending element sets.
func ExampleSection_Ascending() {
	d := section.MustNew(40, 4, -9)
	asc, reversed := d.Ascending()
	fmt.Println(asc, reversed)
	// Output:
	// 4:40:9 true
}
