package repro.core.discovery

import repro.SparkSpec

class ProfilerSpec extends SparkSpec {

  private lazy val df = {
    import spark.implicits._
    Seq.tabulate(200) { i =>
      val name = if (i % 2 == 0) s"John Smith$i" else s"Susan Jones$i"
      val zip = f"900${i % 100}%02d"
      val amount = f"${i * 3.17}%.2f"
      val count = (i * 977).toString // all-digit, many distinct lengths
      (name, zip, amount, count, "M")
    }.toDF("name", "zip", "amount", "cnt", "gender")
  }

  private lazy val profiles = Profiler.profile(df).map(p => p.name -> p).toMap

  test("multi-token text columns are qualitative and tokenized") {
    assert(profiles("name").isQualitative && profiles("name").useTokenize)
  }
  test("all-digit fixed-length codes stay qualitative (the §5.4 heuristic)") {
    assert(profiles("zip").isQualitative)
  }
  test("code columns without separators use n-grams") {
    assert(!profiles("zip").useTokenize)
  }
  test("decimal measures are quantitative and dropped") {
    assert(!profiles("amount").isQualitative)
  }
  test("all-digit counts with many lengths are quantitative") {
    assert(!profiles("cnt").isQualitative)
  }
  test("single-char categoricals are qualitative n-gram columns") {
    assert(profiles("gender").isQualitative && !profiles("gender").useTokenize)
  }
  test("profile counts non-null values") {
    assert(profiles("gender").nonNull == 200)
  }
  test("the __tid column is never profiled") {
    val withTid = repro.core.PFDCheck.withTid(df)
    assert(!Profiler.profile(withTid).exists(_.name == repro.core.PFDCheck.TidCol))
  }

  // ---------------- distinct value lengths, counted exactly ----------------

  /** Profiles of columns whose values cycle through `lengths` (digits only). */
  private def digitColumns(lengths: Seq[Int]*): Map[String, ColumnProfile] = {
    import spark.implicits._
    val rows = (0 until 60).map(i => lengths.map(ls => "7" * ls(i % ls.size)))
    val df = rows.map(r => (r(0), r(1))).toDF("c0", "c1")
    Profiler.profile(df).map(p => p.name -> p).toMap
  }

  test("all-digit values: 4 distinct lengths stay qualitative, 5 are quantitative") {
    val p = digitColumns(Seq(1, 2, 3, 4), Seq(1, 2, 3, 4, 5))
    assert(p("c0").isQualitative && !p("c1").isQualitative)
  }
  test("lengths of 63 or more share one bit") {
    val p = digitColumns(Seq(63, 64, 65, 80, 100), Seq(1, 2, 3, 4, 63, 64, 100))
    assert(p("c0").isQualitative)  // one bit
    assert(!p("c1").isQualitative) // five bits
  }
  test("an all-null column is profiled") {
    import spark.implicits._
    val df = (0 until 20).map(i => (s"A$i", null: String)).toDF("code", "note")
    val note = Profiler.profile(df).find(_.name == "note").get
    assert(note.nonNull == 0 && note.isQualitative && !note.useTokenize)
  }
}
