// Package discard exercises the submiterr analyzer: every discard
// shape fires, handled and captured errors stay clean, and a Submit
// without an error result is exempt.
package discard

type Ctx struct{}

func (c *Ctx) Submit(n int) error { return nil }
func (c *Ctx) SubmitQuiet(n int)  {}

type Batch struct{}

func (b *Batch) Submit() error { return nil }

func use(c *Ctx, b *Batch) {
	c.Submit(1)       // want "error returned by \\*Ctx.Submit is discarded"
	_ = c.Submit(2)   // want "error returned by \\*Ctx.Submit is blanked instead of handled"
	go c.Submit(3)    // want "error returned by \\*Ctx.Submit is discarded by go statement"
	defer c.Submit(4) // want "error returned by \\*Ctx.Submit is discarded by defer statement"
	b.Submit()        // want "error returned by \\*Batch.Submit is discarded"
	if err := c.Submit(6); err != nil {
		panic(err)
	}
	err := c.Submit(7)
	_ = err
	c.SubmitQuiet(8)
}

var _ = use
