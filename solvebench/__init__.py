"""pmssc solve benchmark: instance generator, output checker, tracer, runner."""
