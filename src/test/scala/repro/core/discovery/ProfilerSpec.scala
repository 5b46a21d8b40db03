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

  // ---------------- the driver profile equals the Spark aggregate ----------------

  /** The [[Profiler.Shape]]s of `df`'s columns, computed on the driver. */
  private def driverShapes(df: org.apache.spark.sql.DataFrame): Seq[Profiler.Shape] = {
    val strings = Profiler.asStrings(df)
    val names = strings.columns.toSeq
    names.zip(Profiler.columns(strings.collect(), names.size)).map { case (c, vs) => Profiler.shape(c, vs) }
  }

  private def assertParity(df: org.apache.spark.sql.DataFrame): Unit = {
    val reference = ProfilerReference.shapes(df)
    assert(driverShapes(df) == reference)
    assert(Profiler.profile(df) == reference.map(_.profile))
  }

  test("the driver profile equals the Spark aggregate: nulls, line terminators, signs and dots") {
    import spark.implicits._
    val values = Seq[Option[String]](None, Some(""), Some("123\n"), Some("123\r\n"), Some("123\u2028"),
      Some("123\n\n"), Some("\n"), Some("-.5"), Some("1."), Some("-1.25\r"), Some("."), Some("-"),
      Some("12a"), Some("007"), None)
    val df = values.zipWithIndex.map { case (v, i) =>
      (v, if (i % 3 == 0) v else Some(s"x $i"), Option.empty[String], v.map(_ + "5"))
    }.toDF("mixed", "sparse", "none", "suffixed")
    assertParity(df)
    // each column alone, so that the shares of every value class get tested on their own
    for (v <- values.flatten.distinct) assertParity(Seq.fill(3)(v).toDF("v"))
  }
  test("the driver profile equals the Spark aggregate: non-ASCII, long values, many lengths") {
    import spark.implicits._
    val long = "7" * 63
    val rows = Seq(
      ("é", "𝐀𝐁 c", long, "1"), ("café au lait", "x𝐀y", long + "7", "22"),
      ("naïve", "𝐀", "7" * 100, "333"), ("a-b", "b 𝐀-c", "7" * 62, "4444"),
      ("plain", "𝐀𝐁𝐂", "", "55555"), ("é é", "𝐀 𝐁", long, "666666"))
    assertParity(rows.toDF("accented", "supplementary", "long", "lengths"))
  }
  test("the driver profile equals the Spark aggregate: integer and double columns, an empty table") {
    import spark.implicits._
    val numbers = (0 until 40).map(i => (i * 977, i * 3.17, -i.toLong, if (i % 2 == 0) Some(1.5) else None))
    assertParity(numbers.toDF("int", "double", "long", "half"))
    assertParity(Seq.empty[(String, Int, Double)].toDF("s", "i", "d"))
  }
}
