package exporttest

// CountOf exposes the count to the external test package.
func CountOf(c *Counter) int { return c.n }
