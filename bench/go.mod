module sharellc/bench

go 1.22

require sharellc v0.0.0

replace sharellc => ../
